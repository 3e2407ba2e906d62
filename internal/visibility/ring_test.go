package visibility

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/obs"
)

// TestRingAdvanceMatchesFreshRing: advancing a ring n times leaves it
// holding exactly the frames of a ring built at t0+n·step, with and without
// an ephemeris engine behind it.
func TestRingAdvanceMatchesFreshRing(t *testing.T) {
	c := testConstellation(t)
	o := NewObserver(c)
	const t0, step, k = 100.0, 30.0, 4
	for _, eng := range []*ephem.Engine{nil, ephem.New(c, ephem.Config{Registry: obs.NewRegistry()})} {
		r := NewRing(o, eng, t0, step, k)
		if r.K() != k {
			t.Fatalf("K = %d, want %d", r.K(), k)
		}
		for n := 1; n <= 10; n++ {
			ts := t0 + float64(n)*step
			r.Advance(ts)
			fresh := NewRing(o, eng, ts, step, k)
			for slot := 0; slot <= k; slot++ {
				if !slices.Equal(r.Frame(slot), fresh.Frame(slot)) {
					t.Fatalf("engine %v: after %d advances slot %d differs from a ring built at %v", eng != nil, n, slot, ts)
				}
			}
		}
	}
	if got := NewRing(o, nil, 0, step, 0).K(); got != 1 {
		t.Fatalf("ring asked for depth 0 has K = %d, want 1", got)
	}
}

// TestRingReservesItsDepth: a ring over a default-capacity engine reserves
// its K+1 frames plus two of slack, so after many advances the engine still
// stores the frame in slot 0 and a re-read of that instant hits.
func TestRingReservesItsDepth(t *testing.T) {
	c := testConstellation(t)
	eng := ephem.New(c, ephem.Config{Registry: obs.NewRegistry()})
	const step, k = 60.0, 20
	r := NewRing(NewObserver(c), eng, 0, step, k)
	now := 0.0
	for n := 0; n < 40; n++ {
		now += step
		r.Advance(now)
	}
	before := eng.Stats()
	if before.Frames != k+3 {
		t.Fatalf("engine stores %d frames, want the ring's %d", before.Frames, k+3)
	}
	again := eng.SnapshotAt(now)
	if after := eng.Stats(); after.Hits != before.Hits+1 || &again[0] != &r.Frame(0)[0] {
		t.Fatalf("slot 0 at t=%g missed: stats %+v -> %+v", now, before, after)
	}
}

// TestRingLifeMatchesBruteForce checks VisibleAll and Life against
// Observer.Visible over freshly propagated snapshots, for random groups of
// one to three nearby ground points, and requires the walk to reach the
// zero-life, capped and in-between cases among satellites in view now.
func TestRingLifeMatchesBruteForce(t *testing.T) {
	c := testConstellation(t)
	o := NewObserver(c)
	const t0, step, k = 0.0, 60.0, 5
	r := NewRing(o, nil, t0, step, k)
	snaps := make([][]geo.Vec3, k+1)
	for slot := range snaps {
		snaps[slot] = c.Snapshot(t0 + float64(slot)*step)
	}
	visibleAll := func(grounds []geo.Vec3, sat, slot int) bool {
		for _, g := range grounds {
			if !o.Visible(g, sat, snaps[slot][sat]) {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(3))
	var zero, capped, between int
	for trial := 0; trial < 300; trial++ {
		anchor := geo.LatLon{LatDeg: rng.Float64()*120 - 60, LonDeg: rng.Float64()*360 - 180}
		grounds := make([]geo.Vec3, 1+rng.Intn(3))
		for i := range grounds {
			grounds[i] = geo.Destination(anchor, rng.Float64()*360, rng.Float64()*300).ECEF()
		}
		for sat := range c.Satellites {
			for slot := 0; slot <= k; slot++ {
				if got, want := r.VisibleAll(grounds, sat, slot), visibleAll(grounds, sat, slot); got != want {
					t.Fatalf("sat %d slot %d: VisibleAll %v, brute force %v", sat, slot, got, want)
				}
			}
			want := 0
			for want < k && visibleAll(grounds, sat, want+1) {
				want++
			}
			if got := r.Life(grounds, sat); got != want {
				t.Fatalf("sat %d: Life %d, brute force %d", sat, got, want)
			}
			if !visibleAll(grounds, sat, 0) {
				continue
			}
			switch want {
			case 0:
				zero++
			case k:
				capped++
			default:
				between++
			}
		}
	}
	t.Logf("satellites in view: %d set within a step, %d stay the whole ring, %d in between", zero, capped, between)
	if zero == 0 || capped == 0 || between == 0 {
		t.Fatal("walk missed a Life case — retune it")
	}
}
