package visibility

import (
	"errors"
	"math"
	"slices"
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
// observer, so a mask override indexes its own, tighter footprint, and a
// Surface over it hands out the 40° observer's linear rows.
func TestIndexFollowsObserverMask(t *testing.T) {
	c := starlink(t)
	obs := NewObserverWithMask(c, 40)
	grounds := surfaceGrounds()
	s := NewSurface(obs, grounds)
	if s.boxes == nil {
		t.Fatal("a mask-overridden observer has one limit per shell and must be indexed")
	}
	snap := c.Snapshot(300)
	got := scanRows(s, snap)
	checkRows(t, "mask 40", got, linearRows(obs, grounds, snap))
	tight, wide := 0, 0
	for gi, row := range linearRows(NewObserver(c), grounds, snap) {
		tight, wide = tight+len(got[gi]), wide+len(row)
	}
	if tight >= wide {
		t.Fatalf("40° mask sees %d, shell masks %d: override not applied", tight, wide)
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
	sub := geo.FromECEF(snap[low])
	sub.AltKm = 0
	var grounds []geo.LatLon
	for brg := 0.0; brg < 360; brg += 15 {
		for km := 800.0; km <= 1100; km += 2.5 {
			grounds = append(grounds, geo.Destination(sub, brg, km))
		}
	}
	s := NewSurface(obs, grounds)
	if s.boxes == nil {
		t.Fatal("surface grounds not indexed")
	}
	want, seen := linearRows(obs, grounds, snap), 0
	checkRows(t, "around the low satellite", scanRows(s, snap), want)
	for _, row := range want {
		if slices.Contains(row, low) {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("the sweep never had the low satellite in view")
	}
}
