package ephem

import (
	"math"
	"sync"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/obs"
)

// testConst builds a mid-size single-shell constellation: big enough
// (576 sats) to engage the parallel propagation path under Workers > 1.
func testConst(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("ephem-test", []constellation.Shell{{
		Name: "shell-550", AltitudeKm: 550, InclinationDeg: 53,
		Planes: 24, SatsPerPlane: 24, PhaseFactor: 11, MinElevationDeg: 25,
	}}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	return New(testConst(t), cfg)
}

// TestDifferentialExact pins the engine — parallel propagation, cached and
// uncached, grid and off-grid — byte-for-byte against direct Prop.ECEFAt
// across a full orbital period. This is the guarantee that rewiring
// consumers onto the engine cannot change any published figure.
func TestDifferentialExact(t *testing.T) {
	c := testConst(t)
	eng := New(c, Config{Workers: 4, Registry: obs.NewRegistry()})
	period := c.Satellites[0].Prop.Elements().PeriodSec()
	want := make([]geo.Vec3, c.Size())
	into := make([]geo.Vec3, c.Size())
	for k := 0; k <= 97; k++ {
		// Mix of grid (multiples of 60) and ragged off-grid instants.
		tt := float64(k) / 97 * period
		for i, s := range c.Satellites {
			want[i] = s.Prop.ECEFAt(tt)
		}
		got := eng.SnapshotAt(tt)
		again := eng.SnapshotAt(tt) // cached path
		if err := eng.SnapshotInto(tt, into); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] || want[i] != again[i] || want[i] != into[i] {
				t.Fatalf("t=%g sat=%d: engine %v / %v / %v != direct %v", tt, i, got[i], again[i], into[i], want[i])
			}
		}
	}
}

func TestSnapshotSharingAndStats(t *testing.T) {
	eng := testEngine(t, Config{})
	a := eng.SnapshotAt(100)
	b := eng.SnapshotAt(100)
	if &a[0] != &b[0] {
		t.Fatal("same-time snapshots should share one backing array")
	}
	st := eng.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.PropagatedSats != uint64(eng.Size()) {
		t.Fatalf("propagated %d sats, want %d", st.PropagatedSats, eng.Size())
	}
}

func TestLRUEvictionBounded(t *testing.T) {
	eng := testEngine(t, Config{CacheFrames: 4, GridFrames: 4})
	for k := 0; k < 100; k++ {
		eng.SnapshotAt(float64(k) + 0.5) // off-grid → LRU tier
	}
	if st := eng.Stats(); st.Frames > 4 {
		t.Fatalf("LRU held %d frames, cap 4", st.Frames)
	}
	for k := 0; k < 100; k++ {
		eng.SnapshotAt(float64(k) * 60) // grid tier
	}
	if st := eng.Stats(); st.Frames > 8 {
		t.Fatalf("both tiers held %d frames, caps 4+4", st.Frames)
	}
}

// TestGridTierProtected is the point of the two-tier cache: a long
// off-grid sweep (the LRU-adversarial access pattern of session
// simulations) must not flush grid keyframes.
func TestGridTierProtected(t *testing.T) {
	eng := testEngine(t, Config{CacheFrames: 2, GridFrames: 8})
	kf := eng.SnapshotAt(60) // grid keyframe
	for k := 0; k < 50; k++ {
		eng.SnapshotAt(float64(k) + 0.25) // flood the LRU tier
	}
	before := eng.Stats()
	again := eng.SnapshotAt(60)
	after := eng.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatal("grid keyframe was evicted by the off-grid sweep")
	}
	if &kf[0] != &again[0] {
		t.Fatal("grid keyframe re-propagated instead of shared")
	}
}

func TestSnapshotIntoLengthError(t *testing.T) {
	eng := testEngine(t, Config{})
	if err := eng.SnapshotInto(0, make([]geo.Vec3, 3)); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

// TestConcurrent hammers all entry points from many goroutines over
// overlapping instants; run under -race in CI.
func TestConcurrent(t *testing.T) {
	eng := testEngine(t, Config{Workers: 2, CacheFrames: 8, GridFrames: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]geo.Vec3, eng.Size())
			for k := 0; k < 30; k++ {
				tt := float64((g*k)%7) * 30
				snap := eng.SnapshotAt(tt)
				if snap[0].Norm() < 6000 {
					t.Errorf("implausible radius %v", snap[0])
					return
				}
				if err := eng.SnapshotInto(tt+0.5, dst); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGridIndex covers grid classification edge cases, including
// negative times.
func TestGridIndex(t *testing.T) {
	eng := testEngine(t, Config{})
	cases := []struct {
		t    float64
		idx  int64
		grid bool
	}{
		{0, 0, true}, {60, 1, true}, {-60, -1, true}, {120, 2, true},
		{30, 0, false}, {59.999, 0, false}, {-0.5, 0, false},
	}
	for _, c := range cases {
		idx, ok := eng.gridIndex(c.t)
		if ok != c.grid || (ok && idx != c.idx) {
			t.Fatalf("gridIndex(%g) = %d,%v want %d,%v", c.t, idx, ok, c.idx, c.grid)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	eng := testEngine(t, Config{CacheFrames: -1, GridFrames: -1})
	a := eng.SnapshotAt(0)
	b := eng.SnapshotAt(0)
	if &a[0] == &b[0] {
		t.Fatal("caching disabled, snapshots should be distinct buffers")
	}
	if st := eng.Stats(); st.Frames != 0 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want no frames/hits with caching off", st)
	}
	// Values still exact.
	if a[0] != b[0] {
		t.Fatal("uncached snapshots disagree")
	}
	if math.IsNaN(a[0].X) {
		t.Fatal("NaN position")
	}
}

// TestPositionAtMatchesSnapshot pins the per-satellite call bit-for-bit
// against the full frame across an orbital period on the paper's two
// constellations, and checks it is accounted as propagation work, not as a
// cache lookup.
func TestPositionAtMatchesSnapshot(t *testing.T) {
	for _, build := range []func(constellation.Config) (*constellation.Constellation, error){
		constellation.StarlinkPhase1, constellation.Kuiper,
	} {
		c, err := build(constellation.Config{})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(c, Config{Registry: obs.NewRegistry()})
		period := c.Satellites[0].Prop.Elements().PeriodSec()
		var calls uint64
		for k := 0; k <= 40; k++ {
			tt := float64(k) / 40 * period
			snap := eng.SnapshotAt(tt)
			before := eng.Stats()
			for id := k % 7; id < c.Size(); id += 7 {
				if got := eng.PositionAt(tt, id); got != snap[id] {
					t.Fatalf("%s t=%g sat=%d: PositionAt %v != frame %v", c.Name, tt, id, got, snap[id])
				}
				calls++
			}
			after := eng.Stats()
			if after.Hits != before.Hits || after.Misses != before.Misses || after.Frames != before.Frames {
				t.Fatalf("%s: PositionAt touched the cache: %+v -> %+v", c.Name, before, after)
			}
		}
		if got, want := eng.Stats().PropagatedSats, 41*uint64(c.Size())+calls; got != want {
			t.Fatalf("%s: PropagatedSats = %d, want %d (41 frames + %d single calls)", c.Name, got, want, calls)
		}
	}
}
