// Package feasibility reproduces §4's back-of-envelope analysis: the
// weight, volume, radiation, power, life-cycle, and cost of adding a
// commodity server to each satellite of a mega-constellation. Every input
// defaults to the paper's published numbers and is overridable, and the
// package produces the §4 summary table.
package feasibility

import (
	"fmt"
	"math"

	"repro/internal/power"
)

// Server describes the compute payload. Defaults: HPE ProLiant DL325 Gen10,
// the paper's reference server.
type Server struct {
	Name      string
	WeightKg  float64
	VolumeL   float64
	Cores     int
	MemoryGB  int
	DrawW     float64 // typical operating point
	DrawMaxW  float64 // high operating point
	PriceUSD  float64
	LifeYears float64
}

// DefaultServer returns the paper's HPE DL325 Gen10 reference: 64 cores,
// up to 2 TB memory, 15.6 kg, 1U (~12.6 L), 225/350 W operating points.
func DefaultServer() Server {
	return Server{
		Name:      "HPE ProLiant DL325 Gen10",
		WeightKg:  15.6,
		VolumeL:   12.6, // 1U: 4.4 x 43.5 x 65.9 cm
		Cores:     64,
		MemoryGB:  2048,
		DrawW:     225,
		DrawMaxW:  350,
		PriceUSD:  12000,
		LifeYears: 3, // the paper's typical data-center server life
	}
}

// Satellite describes the host platform. Defaults: Starlink v1.0.
type Satellite struct {
	Name       string
	MassKg     float64
	VolumeL    float64
	SolarAvgW  float64
	LifeYears  float64
	AltitudeKm float64
}

// DefaultSatellite returns Starlink v1.0-class numbers: 260 kg, a flat-panel
// bus around 1.3 m³ including the stowed array allocation, ~1.5 kW average
// solar output, ~5-year design life at 550 km.
func DefaultSatellite() Satellite {
	return Satellite{
		Name:       "Starlink v1.0",
		MassKg:     260,
		VolumeL:    1260,
		SolarAvgW:  1500,
		LifeYears:  5,
		AltitudeKm: 550,
	}
}

// Launch describes launch economics. Defaults: Falcon 9 reusable pricing.
type Launch struct {
	Name      string
	CostPerKg float64
	// InnerVanAllenKm is where the inner radiation belt begins; orbits
	// below it can plausibly fly software-hardened commodity hardware (the
	// HPE Spaceborne precedent the paper cites).
	InnerVanAllenKm float64
}

// DefaultLaunch returns Falcon 9 economics: ~$2,700/kg to LEO (the paper's
// ~42,000 USD for a 15.6 kg server).
func DefaultLaunch() Launch {
	return Launch{Name: "Falcon 9 (reusable)", CostPerKg: 2700, InnerVanAllenKm: 643}
}

// DataCenter describes the terrestrial comparison point.
type DataCenter struct {
	// TCOPerServerYearUSD is the per-server total cost of ownership per
	// year (the paper cites ~5,000 USD/yr from the Uptime Institute model).
	TCOPerServerYearUSD float64
}

// DefaultDataCenter returns the paper's data-center cost model.
func DefaultDataCenter() DataCenter {
	return DataCenter{TCOPerServerYearUSD: 5000}
}

// Study bundles the inputs of a feasibility analysis.
type Study struct {
	Server    Server
	Satellite Satellite
	Launch    Launch
	DC        DataCenter
	Power     power.Budget
	// EclipseFraction is the orbit-average Earth-shadow fraction used in
	// the power analysis; default 0.33 (550 km worst case).
	EclipseFraction float64
}

// Default returns the paper's §4 inputs.
func Default() Study {
	return Study{
		Server:          DefaultServer(),
		Satellite:       DefaultSatellite(),
		Launch:          DefaultLaunch(),
		DC:              DefaultDataCenter(),
		Power:           power.DefaultStarlinkBudget(),
		EclipseFraction: 0.33,
	}
}

// Report is the computed §4 table.
type Report struct {
	// WeightFraction is server weight / satellite mass (paper: ~6%).
	WeightFraction float64
	// VolumeFraction is server volume / satellite volume (paper: ~1%).
	VolumeFraction float64
	// PowerFractionTypical and PowerFractionMax are server draw / average
	// solar output (paper: 15% at 225 W, 23% at 350 W).
	PowerFractionTypical, PowerFractionMax float64
	// CommodityHardwareOK: orbit below the inner Van Allen belt.
	CommodityHardwareOK bool
	// LaunchCostUSD is the cost of launching the server's mass (paper:
	// ~42,000 USD).
	LaunchCostUSD float64
	// OrbitCost3yUSD is server price + launch, amortised over min(server
	// life, satellite life) and normalised to 3 years of service.
	OrbitCost3yUSD float64
	// DCCost3yUSD is 3 years of terrestrial TCO.
	DCCost3yUSD float64
	// CostRatio is orbit/DC over the 3-year window (paper: ~3x).
	CostRatio float64
	// ServerLifeYears is the effective in-orbit service life used.
	ServerLifeYears float64
}

// Analyze computes the report.
func Analyze(s Study) (Report, error) {
	if s.Server.WeightKg <= 0 || s.Satellite.MassKg <= 0 {
		return Report{}, fmt.Errorf("feasibility: non-positive masses (server %v kg, satellite %v kg)", s.Server.WeightKg, s.Satellite.MassKg)
	}
	if s.Server.VolumeL <= 0 || s.Satellite.VolumeL <= 0 {
		return Report{}, fmt.Errorf("feasibility: non-positive volumes")
	}
	if s.DC.TCOPerServerYearUSD <= 0 {
		return Report{}, fmt.Errorf("feasibility: non-positive DC TCO")
	}
	if err := s.Power.Validate(); err != nil {
		return Report{}, err
	}
	r := Report{
		WeightFraction: s.Server.WeightKg / s.Satellite.MassKg,
		VolumeFraction: s.Server.VolumeL / s.Satellite.VolumeL,
	}
	// The paper divides server draw by the 1.5 kW average output directly.
	r.PowerFractionTypical = s.Server.DrawW / s.Satellite.SolarAvgW
	r.PowerFractionMax = s.Server.DrawMaxW / s.Satellite.SolarAvgW
	r.CommodityHardwareOK = s.Satellite.AltitudeKm < s.Launch.InnerVanAllenKm
	r.LaunchCostUSD = s.Server.WeightKg * s.Launch.CostPerKg

	life := math.Min(s.Server.LifeYears, s.Satellite.LifeYears)
	if life <= 0 {
		return Report{}, fmt.Errorf("feasibility: non-positive service life")
	}
	r.ServerLifeYears = life
	perYear := (s.Server.PriceUSD + r.LaunchCostUSD) / life
	r.OrbitCost3yUSD = perYear * 3
	r.DCCost3yUSD = s.DC.TCOPerServerYearUSD * 3
	r.CostRatio = r.OrbitCost3yUSD / r.DCCost3yUSD
	return r, nil
}
