package dcs

import (
	"testing"

	"repro/internal/geo"
)

func TestRegionsValid(t *testing.T) {
	rs := Regions()
	if len(rs) < 30 {
		t.Fatalf("only %d regions, want ≥30 (the paper: Azure has 'more global regions than any other provider')", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if !r.Loc.Valid() {
			t.Errorf("region %s has invalid location", r.Name)
		}
		if r.Name == "" || r.Metro == "" {
			t.Errorf("region with empty fields: %+v", r)
		}
		if seen[r.Name] {
			t.Errorf("duplicate region %s", r.Name)
		}
		seen[r.Name] = true
	}
}

func TestAfricaHasExactlyTwoRegions(t *testing.T) {
	// The paper: "Microsoft Azure ... has two data center regions in
	// Africa" — the whole Fig 3 argument rests on that sparsity.
	n := 0
	for _, r := range Regions() {
		if r.Loc.LatDeg < 5 && r.Loc.LatDeg > -40 && r.Loc.LonDeg > 5 && r.Loc.LonDeg < 45 {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("African regions = %d, want 2 (South Africa North + West)", n)
	}
}

func TestByName(t *testing.T) {
	r, ok := ByName("South Africa North")
	if !ok || r.Metro != "Johannesburg" {
		t.Fatalf("ByName = %+v, %v", r, ok)
	}
	if _, ok := ByName("Atlantis Central"); ok {
		t.Fatal("nonexistent region found")
	}
}

func TestNearestFromWestAfrica(t *testing.T) {
	// From Abuja the nearest Azure region is one of the South African pair —
	// thousands of km away, the paper's motivating sparsity.
	abuja := geo.LatLon{LatDeg: 9.06, LonDeg: 7.49}
	r, _ := MinimaxRegion([]geo.LatLon{abuja}) // one user: the nearest region
	if r.Name != "South Africa North" && r.Name != "South Africa West" && r.Name != "West Europe" && r.Name != "France South" {
		t.Logf("nearest to Abuja = %s", r.Name)
	}
	if d := geo.GreatCircleKm(abuja, r.Loc); d < 3000 {
		t.Fatalf("nearest region to Abuja at %.0f km — dataset too dense to reproduce the paper's gap", d)
	}
}

// TestNearestIsActuallyNearest: for a single user the minimax region is the
// nearest one.
func TestNearestIsActuallyNearest(t *testing.T) {
	pts := []geo.LatLon{
		{LatDeg: 40.71, LonDeg: -74.01}, // New York
		{LatDeg: -33.87, LonDeg: 151.21},
		{LatDeg: 0, LonDeg: 0},
		{LatDeg: 70, LonDeg: 100},
	}
	for _, p := range pts {
		got, gd := MinimaxRegion([]geo.LatLon{p})
		for _, r := range Regions() {
			if geo.GreatCircleKm(p, r.Loc) < gd-1e-9 {
				t.Fatalf("nearest to %v = %s at %.0f km but %s is closer", p, got.Name, gd, r.Name)
			}
		}
	}
}

func TestMinimaxWestAfrica(t *testing.T) {
	// The Fig 3 user group: the best terrestrial meetup region leaves the
	// farthest user ~4,600 km away (9,200 km round trip in the paper).
	users := []geo.LatLon{
		{LatDeg: 9.06, LonDeg: 7.49},  // Abuja
		{LatDeg: 3.87, LonDeg: 11.52}, // Yaounde
		{LatDeg: 5.60, LonDeg: -0.19}, // Accra
	}
	r, worst := MinimaxRegion(users)
	if worst < 3500 || worst > 5500 {
		t.Fatalf("minimax distance = %.0f km (region %s), want ≈4,600", worst, r.Name)
	}
}

func TestMinimaxBeatsEveryOtherRegion(t *testing.T) {
	users := []geo.LatLon{
		{LatDeg: 29.42, LonDeg: -98.49},  // South Central US
		{LatDeg: -23.55, LonDeg: -46.63}, // Brazil South
		{LatDeg: -33.87, LonDeg: 151.21}, // Australia East
	}
	best, worst := MinimaxRegion(users)
	for _, r := range Regions() {
		max := 0.0
		for _, u := range users {
			if d := geo.GreatCircleKm(u, r.Loc); d > max {
				max = d
			}
		}
		if max < worst-1e-9 {
			t.Fatalf("MinimaxRegion picked %s (%.0f) but %s has %.0f", best.Name, worst, r.Name, max)
		}
	}
}
