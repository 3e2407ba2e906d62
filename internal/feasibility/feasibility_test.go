package feasibility

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPaperHeadlineNumbers(t *testing.T) {
	// §4's summary quantities with the paper's defaults.
	r, err := Analyze(Default())
	if err != nil {
		t.Fatal(err)
	}
	// "the weight is 6% of a satellite's weight"
	if !almostEq(r.WeightFraction, 0.06, 0.005) {
		t.Errorf("weight fraction = %.3f, want ≈0.06", r.WeightFraction)
	}
	// "the volume is 1%"
	if !almostEq(r.VolumeFraction, 0.01, 0.003) {
		t.Errorf("volume fraction = %.3f, want ≈0.01", r.VolumeFraction)
	}
	// "operating at 225 W (350 W) would consume 15% (23%) of this power"
	if !almostEq(r.PowerFractionTypical, 0.15, 0.005) {
		t.Errorf("power fraction = %.3f, want 0.15", r.PowerFractionTypical)
	}
	if !almostEq(r.PowerFractionMax, 0.233, 0.005) {
		t.Errorf("max power fraction = %.3f, want ≈0.23", r.PowerFractionMax)
	}
	// "the cost of launching the server is ~42,000 USD"
	if math.Abs(r.LaunchCostUSD-42000) > 2000 {
		t.Errorf("launch cost = %.0f, want ≈42,000", r.LaunchCostUSD)
	}
	// "roughly 3x as expensive as a data center server" over 3 years
	if r.CostRatio < 2.5 || r.CostRatio > 4.5 {
		t.Errorf("cost ratio = %.2f, want ≈3x", r.CostRatio)
	}
	// 550 km is below the inner Van Allen belt: commodity hardware viable.
	if !r.CommodityHardwareOK {
		t.Error("550 km should permit software-hardened commodity hardware")
	}
	if r.ServerLifeYears != 3 {
		t.Errorf("service life = %v, want min(3,5)=3", r.ServerLifeYears)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	base := Default()

	s := base
	s.Server.WeightKg = 0
	if _, err := Analyze(s); err == nil {
		t.Error("zero server weight accepted")
	}

	s = base
	s.Satellite.VolumeL = 0
	if _, err := Analyze(s); err == nil {
		t.Error("zero satellite volume accepted")
	}

	s = base
	s.DC.TCOPerServerYearUSD = 0
	if _, err := Analyze(s); err == nil {
		t.Error("zero DC TCO accepted")
	}

	s = base
	s.Server.LifeYears = 0
	s.Satellite.LifeYears = 0
	if _, err := Analyze(s); err == nil {
		t.Error("zero life accepted")
	}

	s = base
	s.Power.BatteryEfficiency = 2
	if _, err := Analyze(s); err == nil {
		t.Error("bad power budget accepted")
	}
}

func TestHigherOrbitLosesCommodityHardware(t *testing.T) {
	s := Default()
	s.Satellite.AltitudeKm = 1110 // above the 643 km inner-belt boundary
	r, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.CommodityHardwareOK {
		t.Fatal("1110 km should not be flagged commodity-safe")
	}
}

func TestCostScalesWithLaunchPrice(t *testing.T) {
	cheap := Default()
	cheap.Launch.CostPerKg = 1000
	expensive := Default()
	expensive.Launch.CostPerKg = 10000
	rc, err := Analyze(cheap)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Analyze(expensive)
	if err != nil {
		t.Fatal(err)
	}
	if re.CostRatio <= rc.CostRatio {
		t.Fatal("higher launch price should raise the cost ratio")
	}
}
