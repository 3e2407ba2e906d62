package isl

import (
	"testing"

	"repro/internal/constellation"
	"repro/internal/units"
)

func smallConst(t *testing.T, planes, sats int) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("t", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: planes, SatsPerPlane: sats, PhaseFactor: 1, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlusGridDegreeFour(t *testing.T) {
	// Classic +grid: every satellite has exactly 4 ISLs when planes>2 and
	// sats/plane>2.
	c := smallConst(t, 6, 8)
	g := NewPlusGrid(c)
	for id := 0; id < c.Size(); id++ {
		if got := len(g.Neighbors(id)); got != 4 {
			t.Fatalf("sat %d degree = %d, want 4", id, got)
		}
	}
	// Total links = 2 per satellite (each of the 4 links shared by 2).
	if got, want := len(g.links), c.Size()*2; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
}

func TestPlusGridSmallRings(t *testing.T) {
	// With 2 planes the cross-plane ring degenerates: each satellite has
	// one cross-plane neighbour, not two.
	c := smallConst(t, 2, 4)
	g := NewPlusGrid(c)
	for id := 0; id < c.Size(); id++ {
		if got := len(g.Neighbors(id)); got != 3 {
			t.Fatalf("sat %d degree = %d, want 3 (2 in-plane + 1 cross)", id, got)
		}
	}
}

func TestPlusGridNoSelfLinksNoDuplicates(t *testing.T) {
	for _, dims := range [][2]int{{1, 2}, {2, 2}, {3, 1}, {1, 1}, {5, 7}} {
		c := smallConst(t, dims[0], dims[1])
		g := NewPlusGrid(c)
		seen := map[Link]bool{}
		for _, l := range g.links {
			if l.A == l.B {
				t.Fatalf("%v: self link %v", dims, l)
			}
			if l.A > l.B {
				t.Fatalf("%v: unnormalised link %v", dims, l)
			}
			if seen[l] {
				t.Fatalf("%v: duplicate link %v", dims, l)
			}
			seen[l] = true
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	c := smallConst(t, 5, 6)
	g := NewPlusGrid(c)
	for id := 0; id < c.Size(); id++ {
		for _, nb := range g.Neighbors(id) {
			found := false
			for _, back := range g.Neighbors(nb) {
				if back == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric adjacency %d->%d", id, nb)
			}
		}
	}
}

func TestShellsNotCrossLinked(t *testing.T) {
	c, err := constellation.Build("t", []constellation.Shell{
		{Name: "a", AltitudeKm: 550, InclinationDeg: 53, Planes: 3, SatsPerPlane: 4, MinElevationDeg: 25},
		{Name: "b", AltitudeKm: 1110, InclinationDeg: 54, Planes: 3, SatsPerPlane: 4, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewPlusGrid(c)
	for _, l := range g.links {
		sa := c.Satellites[l.A].ShellIndex
		sb := c.Satellites[l.B].ShellIndex
		if sa != sb {
			t.Fatalf("cross-shell link %v (%d vs %d)", l, sa, sb)
		}
	}
}

func TestLinkGeometry(t *testing.T) {
	c := smallConst(t, 6, 8)
	g := NewPlusGrid(c)
	snap := c.Snapshot(0)
	// Any link is bounded by the orbital diameter; with 6 planes the
	// cross-plane links legitimately span up to 60° of RAAN.
	diameter := 2 * (units.EarthRadiusKm + 550)
	for _, l := range g.links {
		d := LengthKm(l, snap)
		if d <= 0 || d >= diameter {
			t.Fatalf("link %v length %v km implausible", l, d)
		}
	}
}

func TestInPlaneLinkLengthExact(t *testing.T) {
	// In-plane neighbours sit 360/S apart on a circle of radius Re+alt.
	c := smallConst(t, 4, 8)
	g := NewPlusGrid(c)
	snap := c.Snapshot(0)
	// Find an in-plane link (both sats in plane 0).
	for _, l := range g.links {
		if c.Satellites[l.A].Plane == 0 && c.Satellites[l.B].Plane == 0 {
			want := 2 * (units.EarthRadiusKm + 550) * 0.3826834323650898 // sin(22.5°)
			if d := LengthKm(l, snap); d < want-1 || d > want+1 {
				t.Fatalf("in-plane link length %v, want %v", d, want)
			}
			return
		}
	}
	t.Fatal("no in-plane link found")
}

func TestStatsAt(t *testing.T) {
	c := smallConst(t, 6, 8)
	g := NewPlusGrid(c)
	snap := c.Snapshot(100)
	s, err := g.StatsAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	if s.Links != len(g.links) {
		t.Fatalf("Stats.Links = %d", s.Links)
	}
	if s.MinKm <= 0 || s.MinKm > s.MeanKm || s.MeanKm > s.MaxKm {
		t.Fatalf("stats ordering broken: %+v", s)
	}
	if s.MinDegree != 4 || s.MaxDegree != 4 {
		t.Fatalf("degrees: %+v", s)
	}
	if s.MeanLatencyMs != units.PropagationDelayMs(s.MeanKm) {
		t.Fatalf("mean latency mismatch: %+v", s)
	}
}

func TestStatsSizeMismatch(t *testing.T) {
	c := smallConst(t, 3, 3)
	g := NewPlusGrid(c)
	if _, err := g.StatsAt(nil); err == nil {
		t.Fatal("want error for wrong snapshot size")
	}
}

func TestStarlinkGridScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation")
	}
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewPlusGrid(c)
	// 4409 satellites × 4 links / 2 = 8818 links.
	if got := len(g.links); got != 8818 {
		t.Fatalf("Starlink +grid links = %d, want 8818", got)
	}
}
