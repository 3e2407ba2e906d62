package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

var widths = []int{1, 2, 3, 8}

// sizes covers the empty batch, one item, and the boundaries around the
// width where chunk counts change, plus a prime that divides by nothing.
func sizes(w int) []int { return []int{0, 1, w - 1, w, w + 1, 10007} }

// goid returns the running goroutine's ID from its stack header — the only
// way to tell "ran on the caller's goroutine" from "ran on a spawned one".
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	var id string
	fmt.Sscanf(string(buf), "goroutine %s ", &id)
	return id
}

// TestWorkersClamped pins the one worker clamp: a GOMAXPROCS raised above
// the CPUs that exist (a container quota's usual state) must not widen the
// fan-out past them.
func TestWorkersClamped(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 3))
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d with GOMAXPROCS %d, want NumCPU = %d",
			got, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	runtime.GOMAXPROCS(1)
	if got := Workers(); got != 1 {
		t.Fatalf("Workers() = %d with GOMAXPROCS 1, want 1", got)
	}
}

func TestChunksCoverAndOwnership(t *testing.T) {
	for _, w := range widths {
		for _, n := range sizes(w) {
			visits := make([]atomic.Int32, n)
			var calls atomic.Int32
			Chunks(n, w, func(slot, lo, hi int) {
				calls.Add(1)
				// Slot w owns the w-th contiguous ceiling-sized chunk.
				chunk := (n + min(w, n) - 1) / min(w, n)
				if lo != slot*chunk || hi != min(lo+chunk, n) || lo >= hi {
					t.Errorf("n=%d width=%d: slot %d got [%d,%d), want [%d,%d)",
						n, w, slot, lo, hi, slot*chunk, min(slot*chunk+chunk, n))
				}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("n=%d width=%d: index %d visited %d times", n, w, i, v)
				}
			}
			if c := int(calls.Load()); c > w || (n > 0) != (c > 0) {
				t.Fatalf("n=%d width=%d: %d chunk calls", n, w, c)
			}
		}
	}
}

func TestEachVisitsOnce(t *testing.T) {
	for _, w := range widths {
		for _, n := range sizes(w) {
			visits := make([]atomic.Int32, n)
			if err := Each(n, w, func(i int) error { visits[i].Add(1); return nil }); err != nil {
				t.Fatal(err)
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("n=%d width=%d: index %d visited %d times", n, w, i, v)
				}
			}
		}
	}
}

// TestInlineAtWidthOne: a resolved width of one (asked for, or clamped by
// n) runs on the caller's goroutine, so single-core hosts and small batches
// pay no hand-off.
func TestInlineAtWidthOne(t *testing.T) {
	caller := goid()
	for _, tc := range []struct{ n, width int }{{100, 1}, {100, 0}, {100, -2}, {1, 8}} {
		Chunks(tc.n, tc.width, func(_, _, _ int) {
			if g := goid(); g != caller {
				t.Errorf("Chunks(%d, %d) ran on goroutine %s, caller is %s", tc.n, tc.width, g, caller)
			}
		})
		_ = Each(tc.n, tc.width, func(int) error {
			if g := goid(); g != caller {
				t.Errorf("Each(%d, %d) ran on goroutine %s, caller is %s", tc.n, tc.width, g, caller)
			}
			return nil
		})
	}
}

// TestEachLowestIndexError: with several failing indices the reported error
// is the lowest one's whatever the interleaving; first-to-the-mutex would
// make a failing sweep's message depend on scheduling.
func TestEachLowestIndexError(t *testing.T) {
	fail := map[int]error{41: errors.New("41"), 500: errors.New("500"), 977: errors.New("977")}
	for _, w := range widths {
		for round := 0; round < 50; round++ {
			var ran41 atomic.Bool
			err := Each(1000, w, func(i int) error {
				if i == 41 {
					// Let higher failures land first when there is
					// anyone to run them.
					for k := 0; k < 100; k++ {
						runtime.Gosched()
					}
					ran41.Store(true)
				}
				return fail[i]
			})
			if err != fail[41] {
				t.Fatalf("width=%d round %d: err = %v, want the lowest failing index (41)", w, round, err)
			}
			if !ran41.Load() {
				t.Fatalf("width=%d: index 41 skipped", w)
			}
		}
	}
}

// TestAsyncJoins: f runs off the caller's goroutine, join returns only after
// f has, and joining again is harmless.
func TestAsyncJoins(t *testing.T) {
	caller := goid()
	release := make(chan struct{})
	var ran string
	join := Async(func() {
		<-release // the caller is provably not blocked while f runs
		ran = goid()
	})
	close(release)
	join()
	join()
	if ran == "" || ran == caller {
		t.Fatalf("f ran on goroutine %q, caller is %s", ran, caller)
	}
}
