package power

import (
	"math"
	"testing"
)

func TestSunDirectionUnit(t *testing.T) {
	for _, d := range []int{1, 80, 172, 266, 355, 366} {
		sun, err := SunDirectionECI(d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sun.Norm()-1) > 1e-12 {
			t.Fatalf("day %d: |sun| = %v", d, sun.Norm())
		}
	}
	if _, err := SunDirectionECI(0); err == nil {
		t.Fatal("day 0 accepted")
	}
	if _, err := SunDirectionECI(400); err == nil {
		t.Fatal("day 400 accepted")
	}
}

func TestSunSeasons(t *testing.T) {
	// March equinox: sun near the equatorial plane (Z ≈ 0).
	eq, err := SunDirectionECI(EquinoxDay)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eq.Z) > 0.05 {
		t.Fatalf("equinox sun Z = %v", eq.Z)
	}
	// June solstice: sun at its northernmost (Z ≈ sin 23.44° ≈ 0.40).
	sol, err := SunDirectionECI(SolsticeDay)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Z < 0.35 || sol.Z > 0.42 {
		t.Fatalf("solstice sun Z = %v", sol.Z)
	}
	// December solstice: southernmost.
	dec, err := SunDirectionECI(355)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Z > -0.35 {
		t.Fatalf("December sun Z = %v", dec.Z)
	}
}

func TestSeasonalSweepShape(t *testing.T) {
	b := DefaultStarlinkBudget()
	load := ServerLoad{Name: "DL325@225", DrawW: 225}
	rows, err := SeasonalSweep(b, load, 550, 53, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.EclipseFraction < 0 || r.EclipseFraction > 0.45 {
			t.Fatalf("day %d eclipse fraction %v", r.DayOfYear, r.EclipseFraction)
		}
		if r.AvailableW <= 0 || r.AvailableW > b.SolarOutputW {
			t.Fatalf("day %d available %v", r.DayOfYear, r.AvailableW)
		}
		if math.Abs(r.HeadroomW-(r.AvailableW-b.BusLoadW-load.DrawW)) > 1e-9 {
			t.Fatalf("day %d headroom inconsistent", r.DayOfYear)
		}
	}
	worst := WorstSeasonHeadroom(rows)
	// With the default (strained) budget, worst-season headroom is negative
	// — §4's "power is perhaps the biggest impediment" made seasonal.
	if worst >= 0 {
		t.Fatalf("worst headroom = %v, expected strained", worst)
	}
	// A dawn-dusk-ish plane sees less eclipse than a noon-midnight plane at
	// the same epoch.
	dawnDusk, err := SeasonalSweep(b, load, 550, 90, 90, []int{EquinoxDay})
	if err != nil {
		t.Fatal(err)
	}
	noonMidnight, err := SeasonalSweep(b, load, 550, 90, 0, []int{EquinoxDay})
	if err != nil {
		t.Fatal(err)
	}
	if dawnDusk[0].EclipseFraction >= noonMidnight[0].EclipseFraction {
		t.Fatalf("dawn-dusk eclipse %v not below noon-midnight %v",
			dawnDusk[0].EclipseFraction, noonMidnight[0].EclipseFraction)
	}
	if dawnDusk[0].EclipseFraction != 0 {
		t.Fatalf("dawn-dusk polar orbit should be eclipse-free at equinox, got %v", dawnDusk[0].EclipseFraction)
	}
}

func TestSeasonalSweepValidation(t *testing.T) {
	if _, err := SeasonalSweep(Budget{}, ServerLoad{}, 550, 53, 0, nil); err == nil {
		t.Fatal("invalid budget accepted")
	}
	if _, err := SeasonalSweep(DefaultStarlinkBudget(), ServerLoad{}, -5, 53, 0, nil); err == nil {
		t.Fatal("invalid orbit accepted")
	}
	if _, err := SeasonalSweep(DefaultStarlinkBudget(), ServerLoad{}, 550, 53, 0, []int{999}); err == nil {
		t.Fatal("invalid day accepted")
	}
}
