package ephem

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/obs"
)

// sameFrame reports the first satellite whose position differs, or -1.
func sameFrame(got, want []geo.Vec3) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// TestSweepMatchesEngine: at random instants — repeats, grid and off-grid,
// some below the floor — every frame a Sweep returns is bit-equal to the
// engine's, and every instant at or above the floor is propagated once.
func TestSweepMatchesEngine(t *testing.T) {
	c := testConst(t)
	ref := New(c, Config{Registry: obs.NewRegistry()})
	eng := New(c, Config{Registry: obs.NewRegistry()})
	eng.capacity = 0 // the engine stores nothing
	sw := eng.Sweep()
	rng := rand.New(rand.NewSource(1))
	floor := 0.0
	propagated := map[float64]bool{}
	var fallThrough uint64
	for k := 0; k < 400; k++ {
		if k%20 == 19 {
			floor += 30 * rng.Float64()
			sw.Advance(floor)
		}
		tt := floor - 20 + 120*rng.Float64()
		if k%3 == 0 {
			tt = math.Round(tt/10) * 10 // repeats, some on the 60 s grid
		}
		got := sw.SnapshotAt(tt)
		if i := sameFrame(got, ref.SnapshotAt(tt)); i >= 0 {
			t.Fatalf("t=%g (floor %g) sat %d: sweep %v != engine %v", tt, floor, i, got[i], ref.SnapshotAt(tt)[i])
		}
		if tt < floor {
			fallThrough++
		} else {
			propagated[tt] = true
		}
	}
	// With the engine's store off, every below-floor request propagates.
	if st := eng.Stats(); st.Misses != uint64(len(propagated))+fallThrough || fallThrough == 0 {
		t.Fatalf("%d misses for %d distinct sweep instants and %d below-floor requests", st.Misses, len(propagated), fallThrough)
	}
	if sw.Buffers() >= len(propagated) {
		t.Fatalf("%d buffers for %d instants: nothing was recycled", sw.Buffers(), len(propagated))
	}
}

// TestSweepHeldFrameNeverRewritten: a frame at or above the floor keeps its
// bits while Advance recycles every frame below it and other instants miss
// into the recycled buffers, all concurrently.
func TestSweepHeldFrameNeverRewritten(t *testing.T) {
	eng := testEngine(t, Config{Workers: 2})
	sw := eng.Sweep()
	const heldAt = 1000.5
	held := sw.SnapshotAt(heldAt)
	want := append([]geo.Vec3(nil), held...)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 100; k++ {
			sw.Advance(float64(k) * 9)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				sw.SnapshotAt(float64(k)*9 + float64(g) + 0.25)
			}
		}()
	}
	wg.Wait()
	if i := sameFrame(held, want); i >= 0 {
		t.Fatalf("held frame at t=%g rewritten: sat %d %v, was %v", heldAt, i, held[i], want[i])
	}
	if again := sw.SnapshotAt(heldAt); &again[0] != &held[0] {
		t.Fatal("held frame re-propagated instead of shared")
	}
	if st := eng.Stats(); sw.Buffers() >= int(st.Misses) {
		t.Fatalf("%d buffers for %d misses: nothing was recycled", sw.Buffers(), st.Misses)
	}
}

// TestSweepBelowFloorIsEngineFrame: below the floor a Sweep serves the
// engine's own cached frame, never one of its recycled buffers.
func TestSweepBelowFloorIsEngineFrame(t *testing.T) {
	eng := testEngine(t, Config{})
	sw := eng.Sweep()
	old := sw.SnapshotAt(50)
	sw.Advance(100)
	sw.SnapshotAt(130) // refills old's recycled buffer
	got := sw.SnapshotAt(50)
	if want := eng.SnapshotAt(50); &got[0] != &want[0] {
		t.Fatal("below-floor request did not return the engine's frame")
	}
	if &got[0] == &old[0] {
		t.Fatal("below-floor request returned a recycled buffer")
	}
	if sw.Buffers() != 1 {
		t.Fatalf("%d buffers allocated, want 1: the t=130 miss should reuse t=50's", sw.Buffers())
	}
	if st := eng.Stats(); st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 3 misses (two sweep, one engine) and 1 hit", st)
	}
}

// TestSweepConcurrentMissPropagatesOnce: two goroutines missing one instant
// share one propagation: the engine propagates one frame's worth of
// satellites.
func TestSweepConcurrentMissPropagatesOnce(t *testing.T) {
	eng := testEngine(t, Config{Workers: 2})
	sw := eng.Sweep()
	const at = 61.5
	var got [2][]geo.Vec3
	var start, done sync.WaitGroup
	start.Add(1)
	for g := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[g] = sw.SnapshotAt(at)
		}()
	}
	start.Done()
	done.Wait()
	if st := eng.Stats(); st.PropagatedSats != uint64(eng.Size()) {
		t.Fatalf("t=%g propagated %d satellites, want one frame of %d", at, st.PropagatedSats, eng.Size())
	}
	if &got[0][0] != &got[1][0] {
		t.Fatal("the two callers got different frames")
	}
	if st := eng.Stats(); st.Misses != 1 || st.Hits != 1 || sw.Buffers() != 1 {
		t.Fatalf("stats = %+v, %d buffers; want 1 miss, 1 hit, 1 buffer", st, sw.Buffers())
	}
}

// FuzzSweepMatchesEngine drives a Sweep and its engine with an arbitrary
// sequence of operations — Sweep requests (repeats and below-floor instants
// included), Advance, and the engine's own SnapshotAt, SnapshotInto and
// Reserve. Every frame either returns equals Constellation.Snapshot bit for
// bit, every engine frame and every Sweep frame still at or above the floor
// keeps its bits to the end, and the engine never stores more frames than
// its capacity.
func FuzzSweepMatchesEngine(f *testing.F) {
	f.Add([]byte{1, 3, 3, 8, 5, 1, 17, 0, 255, 12, 14, 42})
	f.Add([]byte{121, 121, 40, 3, 121, 9, 60, 41, 1, 22, 37, 39, 34})
	c := testConst(f)
	want := map[float64][]geo.Vec3{}
	snapshot := func(at float64) []geo.Vec3 {
		if w, ok := want[at]; ok {
			return w
		}
		want[at] = c.Snapshot(at)
		return want[at]
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		eng := New(c, Config{Registry: obs.NewRegistry()})
		eng.capacity = 2
		capacity := 2
		sw := eng.Sweep()
		dst := make([]geo.Vec3, c.Size())
		floor := math.Inf(-1)
		held := map[float64][]geo.Vec3{}
		var engineAt []float64 // instants of the engine frames returned, in order
		var engineHeld [][]geo.Vec3
		for _, op := range ops {
			at := float64(op/5) * 7.5 // 52 instants, every eighth on the 60 s grid
			var got []geo.Vec3
			switch op % 5 {
			case 0:
				sw.Advance(at)
				floor = math.Max(floor, at)
			case 1:
				got = sw.SnapshotAt(at)
				if at >= floor {
					if h, ok := held[at]; ok && &h[0] != &got[0] {
						t.Fatalf("t=%g propagated twice above the floor", at)
					}
					held[at] = got
				}
			case 2:
				got = eng.SnapshotAt(at)
				engineAt, engineHeld = append(engineAt, at), append(engineHeld, got)
			case 3:
				if err := eng.SnapshotInto(at, dst); err != nil {
					t.Fatal(err)
				}
				got = dst
			case 4:
				n := int(op/5) % 8
				eng.Reserve(n)
				capacity = max(capacity, n)
			}
			if got != nil {
				if i := sameFrame(got, snapshot(at)); i >= 0 {
					t.Fatalf("op %d t=%g (floor %g) sat %d: %v != Snapshot %v", op%5, at, floor, i, got[i], snapshot(at)[i])
				}
			}
			if st := eng.Stats(); st.Frames > capacity {
				t.Fatalf("engine stores %d frames, capacity %d", st.Frames, capacity)
			}
		}
		for at, h := range held {
			if at < floor {
				continue // recycled: no longer the caller's to read
			}
			if i := sameFrame(h, snapshot(at)); i >= 0 {
				t.Fatalf("frame t=%g at floor %g rewritten: sat %d", at, floor, i)
			}
		}
		for i, h := range engineHeld {
			if sat := sameFrame(h, snapshot(engineAt[i])); sat >= 0 {
				t.Fatalf("engine frame t=%g rewritten: sat %d", engineAt[i], sat)
			}
		}
	})
}
