package ephem

import (
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

// TestPropagateTimedOncePerMiss: ephem_propagate_seconds is a sketch that
// records one duration per cache miss — hits, SnapshotInto misses and
// single-satellite calls included in the mix.
func TestPropagateTimedOncePerMiss(t *testing.T) {
	reg := obs.NewRegistry()
	eng := testEngine(t, Config{Registry: reg})
	eng.capacity = 2
	dst := make([]geo.Vec3, eng.Size())
	for k := 0; k < 12; k++ {
		eng.SnapshotAt(float64(k%5) * 60)
		if err := eng.SnapshotInto(float64(k)+0.5, dst); err != nil {
			t.Fatal(err)
		}
		eng.PositionAt(float64(k), k)
	}
	var misses float64
	var timed *obs.Sample
	for _, fam := range reg.Snapshot() {
		switch fam.Name {
		case "ephem_cache_misses_total":
			misses = fam.Samples[0].Value
		case "ephem_propagate_seconds":
			if fam.Kind != obs.KindQuantile {
				t.Fatalf("ephem_propagate_seconds is a %s, want a quantile sketch", fam.Kind)
			}
			timed = &fam.Samples[0]
		}
	}
	if timed == nil || misses == 0 || float64(timed.Count) != misses {
		t.Fatalf("ephem_propagate_seconds = %+v over %g cache misses, want one duration per miss", timed, misses)
	}
	if timed.Value <= 0 || len(timed.Quantiles) == 0 {
		t.Fatalf("ephem_propagate_seconds carries no time: %+v", timed)
	}
}

// TestConcurrentMissPropagatesOnce: callers that miss one instant together
// share the one propagation in flight — PropagatedSats grows by exactly one
// frame and every caller gets the same shared array.
func TestConcurrentMissPropagatesOnce(t *testing.T) {
	eng := testEngine(t, Config{Workers: 2})
	const callers = 8
	got := make([][]geo.Vec3, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < callers; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[g] = eng.SnapshotAt(61.5)
		}()
	}
	start.Done()
	done.Wait()
	st := eng.Stats()
	if st.PropagatedSats != uint64(eng.Size()) || st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats = %+v, want %d propagated, 1 miss, %d hits", st, eng.Size(), callers-1)
	}
	for g := range got {
		if &got[g][0] != &got[0][0] {
			t.Fatalf("caller %d got its own frame", g)
		}
	}
}

// TestFIFOEvictionBounded: over a mix of grid and off-grid instants the
// store never holds more than its capacity, evicts in insertion order even
// when the oldest frame was just read, and still serves the newest frame.
func TestFIFOEvictionBounded(t *testing.T) {
	eng := testEngine(t, Config{})
	eng.capacity = 4
	for k := 0; k < 100; k++ {
		tt := float64(k) * 60 // on the 60 s grid
		if k%3 != 0 {
			tt += 0.5
		}
		eng.SnapshotAt(tt)
		if st := eng.Stats(); st.Frames > 4 {
			t.Fatalf("t=%g: store held %d frames, capacity 4", tt, st.Frames)
		}
	}
	const oldest, newer = 96 * 60, 6000.5
	eng.SnapshotAt(oldest)          // a hit that an LRU would count as a use
	newest := eng.SnapshotAt(newer) // evicts oldest all the same
	before := eng.Stats()
	eng.SnapshotAt(oldest)
	again := eng.SnapshotAt(newer)
	after := eng.Stats()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits+1 {
		t.Fatalf("stats %+v -> %+v, want the evicted oldest frame to miss and the newest to hit", before, after)
	}
	if &again[0] != &newest[0] {
		t.Fatal("newest frame re-propagated instead of shared")
	}
}

func TestSnapshotIntoLengthError(t *testing.T) {
	eng := testEngine(t, Config{})
	if err := eng.SnapshotInto(0, make([]geo.Vec3, 3)); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

// TestConcurrent hammers all entry points, Reserve included, from many
// goroutines over overlapping instants; run under -race in CI.
func TestConcurrent(t *testing.T) {
	eng := testEngine(t, Config{Workers: 2})
	eng.capacity = 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // readers see the store grow under them
		defer wg.Done()
		for n := 8; n <= 12; n++ {
			eng.Reserve(n)
		}
	}()
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
