package visibility

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/orbit"
)

func starlink(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewIndexValidation(t *testing.T) {
	c := starlink(t)
	if _, err := NewIndex(nil, 0); err == nil {
		t.Fatal("nil observer should fail")
	}
	if _, err := NewIndex(NewObserver(c), 0.01); err == nil {
		t.Fatal("tiny cell should fail")
	}
	if _, err := NewIndex(NewObserver(c), 45); err == nil {
		t.Fatal("huge cell should fail")
	}
	ix, err := NewIndex(NewObserver(c), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.cellDeg != DefaultCellDeg {
		t.Fatalf("cell size %v, want default %v", ix.cellDeg, DefaultCellDeg)
	}
	// One limit per shell is what makes a shell's footprint one cone.
	mixed := NewObserver(c)
	mixed.maxChord2[c.Size()-1] *= 1.01
	if _, err := NewIndex(mixed, 0); err == nil {
		t.Fatal("mixed limits inside a shell should fail")
	}
}

// TestIndexFollowsObserverMask: the index takes its limits from the
// observer, so a mask override indexes its own, tighter footprint.
func TestIndexFollowsObserverMask(t *testing.T) {
	c := starlink(t)
	obs := NewObserverWithMask(c, 40)
	ix, err := NewIndex(obs, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot(0)
	if err := ix.Rebuild(snap); err != nil {
		t.Fatal(err)
	}
	shellMasks := NewObserver(c)
	for _, g := range []geo.LatLon{{LatDeg: 10, LonDeg: 20}, {LatDeg: 52, LonDeg: 179.9}, {LatDeg: -89}} {
		ground := g.ECEF()
		got, want := ix.CountReachableFrom(ground), obs.CountReachable(ground, snap)
		if got != want || want >= shellMasks.CountReachable(ground, snap) {
			t.Fatalf("%v: index %d, 40° observer %d, shell masks %d", g, got, want, shellMasks.CountReachable(ground, snap))
		}
	}
}

// TestRebuildRejectsBadSnapshot: a snapshot the index cannot bucket soundly
// is a typed error naming the satellite, not a panic or a silently short
// reachable set. A NaN coordinate once filed its satellite in cell 0 and an
// infinite one at (0°, 0°), both without an error.
func TestRebuildRejectsBadSnapshot(t *testing.T) {
	c := starlink(t)
	ix, err := NewIndex(NewObserver(c), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Rebuild(make([]geo.Vec3, 3)); !errors.Is(err, ErrSnapshotSize) {
		t.Fatalf("short snapshot: %v, want ErrSnapshotSize", err)
	}
	snap := c.Snapshot(0)
	snap[17] = snap[17].Scale(1 - 5/snap[17].Norm())
	if err := ix.Rebuild(snap); !errors.Is(err, ErrBelowShell) {
		t.Fatalf("satellite 5 km below its shell: %v, want ErrBelowShell", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for axis := 0; axis < 3; axis++ {
			snap := c.Snapshot(0)
			v := [3]float64{snap[42].X, snap[42].Y, snap[42].Z}
			v[axis] = bad
			snap[42] = geo.Vec3{X: v[0], Y: v[1], Z: v[2]}
			err := ix.Rebuild(snap)
			if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "satellite 42 ") {
				t.Fatalf("coordinate %d = %v: %v, want ErrNonFinite naming satellite 42", axis, bad, err)
			}
		}
	}
}

// TestIndexHoldsLowestOrbit: a shell whose members fly at different
// altitudes (a TLE import groups them by 10 km) is boxed for its lowest
// orbit, the one seen from furthest away: around that satellite's horizon
// the index finds it wherever the linear scan does.
func TestIndexHoldsLowestOrbit(t *testing.T) {
	c, err := constellation.Build("mixed", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 12, SatsPerPlane: 12, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const low = 17
	e := c.Satellites[low].Prop.Elements()
	e.AltitudeKm -= 9
	if c.Satellites[low].Prop, err = orbit.NewPropagator(e, orbit.Options{}); err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(c)
	ix, err := NewIndex(obs, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot(600)
	if err := ix.Rebuild(snap); err != nil {
		t.Fatal(err)
	}
	sub, seen := geo.FromECEF(snap[low]), 0
	sub.AltKm = 0
	for brg := 0.0; brg < 360; brg += 15 {
		for km := 800.0; km <= 1100; km += 2.5 {
			ground := geo.Destination(sub, brg, km).ECEF()
			got, want := ix.ReachableFrom(ground, nil), obs.Reachable(ground, snap, nil)
			if len(got) != len(want) {
				t.Fatalf("bearing %v, %v km from the low satellite: index %d, linear %d", brg, km, len(got), len(want))
			}
			for _, p := range want {
				if p.SatID == low {
					seen++
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("the sweep never had the low satellite in view")
	}
}

// sortPasses orders passes by satellite ID so index output (cell-grouped)
// can be compared against the linear scan (ID-ordered).
func sortPasses(ps []Pass) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].SatID < ps[j].SatID })
}

// TestReachableFromMatchesLinear is the index's correctness anchor: at
// several epochs and ground points (equator, mid-latitudes, the dateline,
// beyond-coverage latitudes, both hemispheres), the indexed query must
// return exactly the passes of the exhaustive O(N) Observer.Reachable scan.
func TestReachableFromMatchesLinear(t *testing.T) {
	c := starlink(t)
	obs := NewObserver(c)
	ix, err := NewIndex(obs, 0)
	if err != nil {
		t.Fatal(err)
	}
	grounds := []geo.LatLon{
		{LatDeg: 0, LonDeg: 0},
		{LatDeg: 51.5, LonDeg: -0.1},   // London
		{LatDeg: -33.9, LonDeg: 151.2}, // Sydney
		{LatDeg: 64.1, LonDeg: -21.9},  // Reykjavik, above the 53° shells
		{LatDeg: 0.1, LonDeg: 179.95},  // dateline wrap
		{LatDeg: -5, LonDeg: -179.9},   // dateline wrap, west side
		{LatDeg: 80, LonDeg: 10},       // polar-shell-only coverage
		{LatDeg: -90, LonDeg: 0},       // south pole
	}
	for _, tSec := range []float64{0, 731, 3600} {
		snap := c.Snapshot(tSec)
		if err := ix.Rebuild(snap); err != nil {
			t.Fatal(err)
		}
		for _, g := range grounds {
			ground := g.ECEF()
			want := obs.Reachable(ground, snap, nil)
			got := ix.ReachableFrom(ground, nil)
			sortPasses(want)
			sortPasses(got)
			if len(got) != len(want) {
				t.Fatalf("t=%v %v: index %d passes, linear %d", tSec, g, len(got), len(want))
			}
			for i := range want {
				w, h := want[i], got[i]
				if w.SatID != h.SatID {
					t.Fatalf("t=%v %v: pass %d sat %d vs %d", tSec, g, i, h.SatID, w.SatID)
				}
				if math.Abs(w.SlantKm-h.SlantKm) > 1e-9 || math.Abs(w.RTTMs-h.RTTMs) > 1e-12 ||
					math.Abs(w.ElevationDeg-h.ElevationDeg) > 1e-9 {
					t.Fatalf("t=%v %v: pass for sat %d differs: %+v vs %+v", tSec, g, w.SatID, h, w)
				}
			}
			if n := ix.CountReachableFrom(ground); n != len(want) {
				t.Fatalf("t=%v %v: CountReachableFrom %d, want %d", tSec, g, n, len(want))
			}
		}
	}
}

func TestReachableFromDstReuse(t *testing.T) {
	c := starlink(t)
	ix, err := NewIndex(NewObserver(c), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot(0)
	if err := ix.Rebuild(snap); err != nil {
		t.Fatal(err)
	}
	ground := geo.LatLon{LatDeg: 10, LonDeg: 20}.ECEF()

	first := ix.ReachableFrom(ground, nil)
	if len(first) == 0 {
		t.Fatal("no passes at a mid-latitude point")
	}
	// Appending into a recycled buffer must not disturb earlier entries.
	buf := append(first[:0:0], first...)
	again := ix.ReachableFrom(ground, buf[:0])
	if len(again) != len(first) {
		t.Fatalf("reuse changed result size: %d vs %d", len(again), len(first))
	}
	for i := range first {
		if again[i] != first[i] {
			t.Fatalf("pass %d differs after reuse", i)
		}
	}
}

// TestReachableFromEdgeCases pins the index to the exhaustive scan exactly
// at the coordinate singularities: the poles (±90°), the dateline (±180°,
// where colOf wraps), and points just shy of both — where row clamping and
// dateline-window splitting are easiest to get wrong.
func TestReachableFromEdgeCases(t *testing.T) {
	c := starlink(t)
	obs := NewObserver(c)
	ix, err := NewIndex(obs, 0)
	if err != nil {
		t.Fatal(err)
	}
	grounds := []geo.LatLon{
		{LatDeg: 90, LonDeg: 0},    // north pole
		{LatDeg: 90, LonDeg: 137},  // north pole, alternate longitude label
		{LatDeg: -90, LonDeg: 0},   // south pole
		{LatDeg: -90, LonDeg: -45}, // south pole, alternate longitude label
		{LatDeg: 89.9, LonDeg: 10},
		{LatDeg: -89.9, LonDeg: -170},
		{LatDeg: 0, LonDeg: 180},  // dateline, east label
		{LatDeg: 0, LonDeg: -180}, // dateline, west label (same meridian)
		{LatDeg: 53, LonDeg: 180}, // dateline at shell inclination
		{LatDeg: -53, LonDeg: -180},
		{LatDeg: 12, LonDeg: 179.99},
		{LatDeg: -12, LonDeg: -179.99},
		{LatDeg: 89.9, LonDeg: 179.99}, // near-pole AND near-dateline
		{LatDeg: -89.9, LonDeg: -179.99},
	}
	for _, tSec := range []float64{0, 1201} {
		snap := c.Snapshot(tSec)
		if err := ix.Rebuild(snap); err != nil {
			t.Fatal(err)
		}
		for _, g := range grounds {
			ground := g.ECEF()
			want := obs.Reachable(ground, snap, nil)
			got := ix.ReachableFrom(ground, nil)
			sortPasses(want)
			sortPasses(got)
			if len(got) != len(want) {
				t.Fatalf("t=%v %v: index %d passes, linear %d", tSec, g, len(got), len(want))
			}
			for i := range want {
				if got[i].SatID != want[i].SatID {
					t.Fatalf("t=%v %v: pass %d sat %d vs %d", tSec, g, i, got[i].SatID, want[i].SatID)
				}
				if math.Abs(got[i].SlantKm-want[i].SlantKm) > 1e-9 {
					t.Fatalf("t=%v %v: sat %d slant %v vs %v", tSec, g, want[i].SatID, got[i].SlantKm, want[i].SlantKm)
				}
			}
			if n := ix.CountReachableFrom(ground); n != len(want) {
				t.Fatalf("t=%v %v: CountReachableFrom %d, want %d", tSec, g, n, len(want))
			}
		}
	}
}
