package netgraph

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/orbit"
)

// twoShellNet is a two-shell constellation (528 + 240 satellites, J2 on): the
// +grid links no shells, so a cross-shell pair has no ISL path.
func twoShellNet(tb testing.TB) *Network {
	c, err := constellation.Build("within", []constellation.Shell{
		{Name: "low", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 22, PhaseFactor: 5, MinElevationDeg: 25},
		{Name: "high", AltitudeKm: 1110, InclinationDeg: 70, Planes: 12, SatsPerPlane: 20, PhaseFactor: 3, MinElevationDeg: 35},
	}, constellation.Config{Orbit: orbit.Options{J2: true}})
	if err != nil {
		tb.Fatal(err)
	}
	return New(c, nil)
}

// FuzzISLWithin: ISLWithin(a, b, bound) is min(D, bound) bit for bit, where D
// is ISLShortest's latency (+Inf without a path), and ok holds exactly when a
// path exists and D ≤ bound — at bounds 0, +Inf, D, D's neighbours either
// side and a random fraction of D, on same-shell and cross-shell pairs.
func FuzzISLWithin(f *testing.F) {
	n := twoShellNet(f)
	sats := uint16(n.Sats())
	f.Add(0.0, uint16(0), uint16(300), uint8(2), 0.5)
	f.Add(600.0, uint16(5), uint16(100), uint8(3), 0.5)
	f.Add(1200.0, uint16(17), uint16(410), uint8(4), 0.5)
	f.Add(50.0, uint16(40), uint16(600), uint8(1), 0.5) // cross-shell: no path
	f.Add(9000.0, uint16(3), uint16(250), uint8(5), 0.9)
	f.Add(86400.0, uint16(528), uint16(700), uint8(0), 0.0)
	f.Fuzz(func(t *testing.T, tSec float64, a, b uint16, mode uint8, frac float64) {
		if math.IsNaN(tSec) || math.IsInf(tSec, 0) || math.IsNaN(frac) || math.IsInf(frac, 0) {
			t.Skip()
		}
		s := n.At(math.Mod(math.Abs(tSec), 2*86400))
		pos := s.satPos
		ia, ib := int(a%sats), int(b%sats)
		d := math.Inf(1)
		if p, err := ISLShortest(n.Grid, pos, ia, ib); err == nil {
			d = p.OneWayMs
		}
		var bound float64
		switch mode % 6 {
		case 0:
			bound = 0
		case 1:
			bound = math.Inf(1)
		case 2:
			bound = d
		case 3:
			bound = math.Nextafter(d, math.Inf(1))
		case 4:
			bound = math.Nextafter(d, math.Inf(-1))
		case 5:
			bound = d * math.Mod(math.Abs(frac), 2)
		}
		if math.IsNaN(bound) { // +Inf × 0 on a pathless pair
			t.Skip()
		}
		got, ok := ISLWithin(n.Grid, pos, ia, ib, bound)
		want := math.Min(d, bound)
		wantOK := !math.IsInf(d, 1) && d <= bound
		if math.Float64bits(got) != math.Float64bits(want) || ok != wantOK {
			t.Fatalf("ISLWithin(%d, %d, %v) at t=%v = (%v, %v), want (%v, %v); D = %v",
				ia, ib, bound, tSec, got, ok, want, wantOK, d)
		}
	})
}

// TestISLWithinEdgeCases pins the answers that need no search — a == b,
// out-of-range IDs, a NaN or negative bound — and that none of them runs or
// records a query, and that a real query allocates nothing.
func TestISLWithinEdgeCases(t *testing.T) {
	n := twoShellNet(t)
	pos := n.At(0).satPos
	sats := len(pos)
	nan := math.NaN()
	cases := []struct {
		name   string
		a, b   int
		bound  float64
		wantMs float64
		wantOK bool
	}{
		{"self", 7, 7, 5, 0, true},
		{"self at zero bound", 7, 7, 0, 0, true},
		{"self at +Inf", 7, 7, math.Inf(1), 0, true},
		{"self at negative bound", 7, 7, -1, -1, false},
		{"negative a", -1, 3, 50, 50, false},
		{"b past the end", 3, sats, 50, 50, false},
		{"a past the end", sats, 3, math.Inf(1), math.Inf(1), false},
		{"negative bound", 0, 300, -1, -1, false},
		{"-Inf bound", 0, 300, math.Inf(-1), math.Inf(-1), false},
		{"NaN bound", 0, 300, nan, nan, false},
	}
	for _, tc := range cases {
		before := TotalStats().ISLQueries
		ms, ok := ISLWithin(n.Grid, pos, tc.a, tc.b, tc.bound)
		same := math.Float64bits(ms) == math.Float64bits(tc.wantMs) || math.IsNaN(ms) && math.IsNaN(tc.wantMs)
		if !same || ok != tc.wantOK {
			t.Errorf("%s: ISLWithin(%d, %d, %v) = (%v, %v), want (%v, %v)", tc.name, tc.a, tc.b, tc.bound, ms, ok, tc.wantMs, tc.wantOK)
		}
		if q := TotalStats().ISLQueries - before; q != 0 {
			t.Errorf("%s: recorded %d isl queries, want none", tc.name, q)
		}
	}

	// Positions one short of the grid are refused, not searched.
	before := TotalStats().ISLQueries
	if ms, ok := ISLWithin(n.Grid, pos[:sats-1], 0, 300, 50); ms != 50 || ok {
		t.Errorf("short positions: ISLWithin = (%v, %v), want (50, false)", ms, ok)
	}
	if q := TotalStats().ISLQueries - before; q != 0 {
		t.Errorf("short positions: recorded %d isl queries, want none", q)
	}

	// A searched query records exactly one isl query, capped or not.
	for _, bound := range []float64{0, 1, math.Inf(1)} {
		before := TotalStats().ISLQueries
		ISLWithin(n.Grid, pos, 0, 300, bound)
		if q := TotalStats().ISLQueries - before; q != 1 {
			t.Errorf("bound %v: recorded %d isl queries, want 1", bound, q)
		}
	}
	if raceEnabled {
		return
	}
	for _, bound := range []float64{1, math.Inf(1)} {
		if allocs := testing.AllocsPerRun(20, func() { ISLWithin(n.Grid, pos, 0, 300, bound) }); allocs != 0 {
			t.Errorf("bound %v: ISLWithin allocates %v times a query, want 0", bound, allocs)
		}
	}
}

// TestISLRefusesMismatchedPositions: a position slice whose length is not
// the grid's is refused before any search — ISLShortest with an error,
// ISLWithin with (bound, false) — shorter or longer, before and after a
// well-sized query has cached the grid's CSR. Its IDs may all be in range of
// the slice: the grid's neighbours past its end are what a search would read.
func TestISLRefusesMismatchedPositions(t *testing.T) {
	c, err := constellation.Build("mismatch", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 10, SatsPerPlane: 10, PhaseFactor: 1, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := isl.NewPlusGrid(c)
	pos := c.Snapshot(0)
	refused := func(when string) {
		t.Helper()
		for _, bad := range [][]geo.Vec3{pos[:20], append(slices.Clone(pos), pos[0])} {
			if _, err := ISLShortest(g, bad, 3, 15); err == nil || errors.Is(err, ErrNoPath) {
				t.Errorf("%s: ISLShortest on %d positions for %d satellites: err %v, want a mismatch", when, len(bad), g.Size(), err)
			}
			if ms, ok := ISLWithin(g, bad, 3, 15, 80); ms != 80 || ok {
				t.Errorf("%s: ISLWithin on %d positions = (%v, %v), want (80, false)", when, len(bad), ms, ok)
			}
		}
	}
	refused("cold")
	if _, err := ISLShortest(g, pos, 3, 15); err != nil {
		t.Fatalf("well-sized query: %v", err)
	}
	refused("cached")
}
