package cities

import (
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestRealAllValid(t *testing.T) {
	real := Real()
	if len(real) < 300 {
		t.Fatalf("embedded list has %d cities, want ≥300", len(real))
	}
	seen := map[string]bool{}
	for _, c := range real {
		if !c.Loc.Valid() {
			t.Errorf("city %s has invalid location %v", c.Name, c.Loc)
		}
		if c.Population <= 0 {
			t.Errorf("city %s has population %d", c.Name, c.Population)
		}
		if c.Name == "" || c.Country == "" {
			t.Errorf("city with empty name/country: %+v", c)
		}
		key := c.Name + "/" + c.Country
		if seen[key] {
			t.Errorf("duplicate city %s", key)
		}
		seen[key] = true
	}
}

func TestRealSortedByPopulation(t *testing.T) {
	real := Real()
	for i := 1; i < len(real); i++ {
		if real[i].Population > real[i-1].Population {
			t.Fatalf("not sorted: %s(%d) after %s(%d)",
				real[i].Name, real[i].Population, real[i-1].Name, real[i-1].Population)
		}
	}
	// The biggest metro on Earth leads the list.
	if real[0].Name != "Tokyo" {
		t.Fatalf("largest city = %s, want Tokyo", real[0].Name)
	}
}

func TestNorthernHemisphereSkew(t *testing.T) {
	// Fig 5's point — most invisible satellites sit south of the world's
	// population — depends on the dataset's hemispheric skew. Check that
	// at least 75% of the top-500 population lives north of the equator.
	top := TopN(500)
	var north, total float64
	for _, c := range top {
		total += float64(c.Population)
		if c.Loc.LatDeg > 0 {
			north += float64(c.Population)
		}
	}
	if frac := north / total; frac < 0.75 {
		t.Fatalf("northern population fraction = %.2f, want ≥0.75", frac)
	}
}

func TestTopNSizesAndOrder(t *testing.T) {
	for _, n := range []int{1, 10, 100, 500, 1000, MaxCities} {
		got := TopN(n)
		if len(got) != n {
			t.Fatalf("TopN(%d) returned %d", n, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Population > got[i-1].Population {
				t.Fatalf("TopN(%d) not sorted at %d", n, i)
			}
		}
	}
}

func TestTopNDeterministic(t *testing.T) {
	a := TopN(1000)
	b := TopN(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TopN not deterministic at index %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTopNPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, MaxCities + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TopN(%d) should panic", n)
				}
			}()
			TopN(n)
		}()
	}
}

func TestSyntheticTailProperties(t *testing.T) {
	all := TopN(MaxCities)
	real := Real()
	if len(all) <= len(real) {
		t.Skip("no synthetic tail needed")
	}
	for _, c := range all[len(real):] {
		if !c.Loc.Valid() {
			t.Fatalf("synthetic city invalid: %+v", c)
		}
		if !strings.Contains(c.Name, "-satellite-") {
			t.Fatalf("synthetic city name %q lacks marker", c.Name)
		}
		if c.Population < 5000 {
			t.Fatalf("synthetic city population too small: %+v", c)
		}
		if c.Population > real[len(real)-1].Population {
			t.Fatalf("synthetic city larger than smallest real city: %+v", c)
		}
	}
}

// TestLocationsAndECEF: Locations projects cities onto their coordinates,
// surface points whose ECEF vectors lie on the Earth's radius — the ground
// sets a visibility.Surface indexes.
func TestLocationsAndECEF(t *testing.T) {
	top := TopN(MaxCities)
	locs := Locations(top)
	if len(locs) != MaxCities {
		t.Fatal("projection length wrong")
	}
	for i := range top {
		if locs[i] != top[i].Loc {
			t.Fatalf("Locations[%d] mismatch", i)
		}
		if r := locs[i].ECEF().Norm(); locs[i].AltKm != 0 || math.Abs(r-units.EarthRadiusKm) > 1e-9 {
			t.Fatalf("city %d at %v km altitude, |ECEF| %v km: not a surface point", i, locs[i].AltKm, r)
		}
	}
}

func TestContainsPaperCities(t *testing.T) {
	// The Fig 3 scenarios reference these exact cities; make sure the
	// dataset carries them with plausible coordinates.
	wants := map[string][2]float64{
		"Abuja":       {9.06, 7.49},
		"Yaounde":     {3.87, 11.52},
		"Accra":       {5.60, -0.19},
		"San Antonio": {29.42, -98.49},
		"Sao Paulo":   {-23.55, -46.63},
		"Sydney":      {-33.87, 151.21},
	}
	real := Real()
	for name, ll := range wants {
		found := false
		for _, c := range real {
			if c.Name == name {
				found = true
				if math.Abs(c.Loc.LatDeg-ll[0]) > 0.2 || math.Abs(c.Loc.LonDeg-ll[1]) > 0.2 {
					t.Errorf("%s at %v, want ≈%v", name, c.Loc, ll)
				}
			}
		}
		if !found {
			t.Errorf("dataset missing %s", name)
		}
	}
}
