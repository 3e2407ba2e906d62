package power

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDefaultBudgetValid(t *testing.T) {
	if err := DefaultStarlinkBudget().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		b    Budget
		ok   bool
	}{
		{"good", Budget{SolarOutputW: 1500, BatteryEfficiency: 0.9}, true},
		{"no-solar", Budget{SolarOutputW: 0, BatteryEfficiency: 0.9}, false},
		{"neg-bus", Budget{SolarOutputW: 1, BusLoadW: -1, BatteryEfficiency: 0.9}, false},
		{"neg-batt", Budget{SolarOutputW: 1, BatteryWh: -1, BatteryEfficiency: 0.9}, false},
		{"bad-eff", Budget{SolarOutputW: 1, BatteryEfficiency: 1.1}, false},
		{"zero-eff", Budget{SolarOutputW: 1, BatteryEfficiency: 0}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.b.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestPaperPowerFractions(t *testing.T) {
	// §4: the 225 W (350 W) server consumes 15% (23%) of the ~1.5 kW
	// average output. The paper divides by average output directly, which
	// is the available power with zero eclipse.
	avg := DefaultStarlinkBudget().AverageAvailableW(0)
	if got := 225 / avg; !almostEq(got, 0.15, 0.001) {
		t.Fatalf("225 W fraction = %v, want 0.15", got)
	}
	if got := 350 / avg; !almostEq(got, 0.2333, 0.001) {
		t.Fatalf("350 W fraction = %v, want ~0.23", got)
	}
}

func TestAverageAvailableWithEclipse(t *testing.T) {
	b := Budget{SolarOutputW: 1500, BatteryEfficiency: 1}
	// With perfect battery, available average = solar × sunlit /
	// (sunlit + dark) = solar × (1-f).
	if got := b.AverageAvailableW(0.4); !almostEq(got, 1500*0.6, 1e-9) {
		t.Fatalf("perfect battery available = %v", got)
	}
	// With lossy battery, strictly less.
	lossy := Budget{SolarOutputW: 1500, BatteryEfficiency: 0.8}
	if lossy.AverageAvailableW(0.4) >= b.AverageAvailableW(0.4) {
		t.Fatal("lossy battery should reduce available power")
	}
	// No eclipse: full output either way.
	if got := lossy.AverageAvailableW(0); !almostEq(got, 1500, 1e-9) {
		t.Fatalf("no-eclipse available = %v", got)
	}
	// Eclipse fraction clamps.
	if got := lossy.AverageAvailableW(-1); !almostEq(got, 1500, 1e-9) {
		t.Fatalf("clamped available = %v", got)
	}
}

func TestEclipseSurvival(t *testing.T) {
	b := DefaultStarlinkBudget()
	h := b.EclipseSurvivalHours(ServerLoad{DrawW: 225})
	// 2000 Wh × 0.9 / 1025 W ≈ 1.76 h — comfortably beyond the ~35 min
	// eclipse arc of a 550 km orbit.
	if h < 1 || h > 3 {
		t.Fatalf("eclipse survival = %v h", h)
	}
	if !math.IsInf(Budget{SolarOutputW: 1, BatteryEfficiency: 1}.EclipseSurvivalHours(ServerLoad{}), 1) {
		t.Fatal("zero load should survive forever")
	}
}

func TestOrbitEclipseFraction(t *testing.T) {
	// Sun in the orbit plane at 550 km: eclipse ≈ 35-40% of the orbit.
	f, err := OrbitEclipseFraction(550, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f < 0.3 || f > 0.45 {
		t.Fatalf("in-plane eclipse fraction = %v", f)
	}
	// High out-of-plane angle: no eclipse.
	f2, err := OrbitEclipseFraction(550, 80)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != 0 {
		t.Fatalf("beta=80° eclipse fraction = %v, want 0", f2)
	}
	// Higher orbit has a shorter eclipse arc fraction.
	f3, err := OrbitEclipseFraction(1325, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f3 >= f {
		t.Fatalf("1325 km fraction %v not below 550 km %v", f3, f)
	}
	if _, err := OrbitEclipseFraction(-5, 0); err == nil {
		t.Fatal("negative altitude accepted")
	}
}
