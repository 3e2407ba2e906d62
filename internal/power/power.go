// Package power models a satellite's electrical budget (§4 "Power"): solar
// array output, battery cycling through Earth-shadow eclipses, and the share
// a compute payload draws. Numbers default to the paper's Starlink v1.0
// estimates (~1.5 kW average solar output) and the HPE DL325 server's
// 225/350 W operating points.
package power

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/orbit"
)

// Budget describes a satellite's power system.
type Budget struct {
	// SolarOutputW is the average solar array output while sunlit.
	SolarOutputW float64
	// BusLoadW is the satellite's own (non-compute) load: transponders,
	// avionics, thermal.
	BusLoadW float64
	// BatteryWh is usable battery capacity.
	BatteryWh float64
	// BatteryEfficiency is round-trip charge/discharge efficiency (0-1].
	BatteryEfficiency float64
}

// DefaultStarlinkBudget returns the paper's rough Starlink v1.0 numbers: an
// average solar output around 1.5 kW (reddit-sourced estimate the paper
// cites), a bus load that leaves roughly the advertised margin, and a
// battery sized for eclipse operation.
func DefaultStarlinkBudget() Budget {
	return Budget{
		SolarOutputW:      1500,
		BusLoadW:          800,
		BatteryWh:         2000,
		BatteryEfficiency: 0.9,
	}
}

// Validate reports whether the budget is self-consistent.
func (b Budget) Validate() error {
	if b.SolarOutputW <= 0 {
		return fmt.Errorf("power: solar output must be positive, got %v", b.SolarOutputW)
	}
	if b.BusLoadW < 0 {
		return fmt.Errorf("power: negative bus load %v", b.BusLoadW)
	}
	if b.BatteryWh < 0 {
		return fmt.Errorf("power: negative battery %v", b.BatteryWh)
	}
	if b.BatteryEfficiency <= 0 || b.BatteryEfficiency > 1 {
		return fmt.Errorf("power: battery efficiency %v outside (0,1]", b.BatteryEfficiency)
	}
	return nil
}

// ServerLoad is a compute payload operating point.
type ServerLoad struct {
	// Name labels the operating point ("DL325 @225W").
	Name string
	// DrawW is the electrical draw.
	DrawW float64
}

// AverageAvailableW returns the orbit-average power available to loads,
// given the eclipse fraction: sunlit generation is used directly, dark-arc
// consumption pays the battery round-trip penalty.
func (b Budget) AverageAvailableW(eclipseFraction float64) float64 {
	f := math.Min(math.Max(eclipseFraction, 0), 1)
	sunlit := 1 - f
	// Energy balance over one orbit of unit duration: generate S×sunlit;
	// a steady load L consumes L×sunlit directly and L×f/η via battery.
	// Max steady L: S×sunlit = L×(sunlit + f/η).
	den := sunlit + f/b.BatteryEfficiency
	if den == 0 {
		return 0
	}
	return b.SolarOutputW * sunlit / den
}

// EclipseSurvivalHours returns how long the battery alone sustains the bus
// plus server load.
func (b Budget) EclipseSurvivalHours(s ServerLoad) float64 {
	load := b.BusLoadW + s.DrawW
	if load <= 0 {
		return math.Inf(1)
	}
	return b.BatteryWh * b.BatteryEfficiency / load
}

// OrbitEclipseFraction computes the eclipse fraction for a circular orbit
// via the shadow-cylinder model, worst case over sun geometry (sun in the
// orbital plane) when sunInPlane is true, otherwise for the given beta-like
// out-of-plane angle in degrees.
func OrbitEclipseFraction(altitudeKm float64, outOfPlaneDeg float64) (float64, error) {
	e := orbit.Elements{AltitudeKm: altitudeKm, InclinationDeg: 0}
	p, err := orbit.NewPropagator(e, orbit.Options{})
	if err != nil {
		return 0, err
	}
	// Sun unit vector at outOfPlaneDeg above the (equatorial) orbit plane.
	beta := outOfPlaneDeg * math.Pi / 180
	sun := geo.Vec3{X: math.Cos(beta), Z: math.Sin(beta)}
	return p.EclipseFraction(sun, 5), nil
}
