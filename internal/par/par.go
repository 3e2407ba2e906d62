// Package par is the repository's one fan-out kernel. Every engine that
// spreads CPU-bound work over cores — ephemeris propagation, multi-source
// SSSP, the fleet planner, the experiment sweeps — goes through Chunks or
// Each, so there is one worker clamp and one place that launches and waits
// for goroutines. Both primitives run inline on the caller's goroutine when
// the resolved width is one, and both hand work out by index alone, so what
// is computed never depends on the width; whether a batch is worth fanning
// out is the call site's decision (its units differ). Async is the one way
// to keep the caller busy meanwhile: the fleet planner proposes ahead with
// it, and each serve engine refreshes the next slice.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the default fan-out width: the parallelism that exists.
// GOMAXPROCS routinely exceeds the CPUs actually available (container
// quotas, taskset pins), and spawning past NumCPU just time-slices
// CPU-bound work on one core.
func Workers() int {
	return max(1, min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
}

// Chunks splits [0, n) into at most width contiguous chunks of equal
// ceiling size and runs f(w, lo, hi) once per chunk. Slot w always owns the
// w-th chunk, so per-slot scratch indexed by w is never shared and which
// slot computed an item never affects what was computed.
func Chunks(n, width int, f func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	width = min(width, n)
	if width <= 1 {
		f(0, 0, n)
		return
	}
	chunk := (n + width - 1) / width
	var wg sync.WaitGroup
	for w := 0; w*chunk < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w, w*chunk, min((w+1)*chunk, n))
		}()
	}
	wg.Wait()
}

// Each runs f(i) for every i in [0, n) on up to width goroutines that claim
// indices in ascending order, for work whose per-index cost is uneven. It
// returns the error of the lowest failing index — an index is only skipped
// once a lower one has failed — so the result does not depend on scheduling.
func Each(n, width int, f func(i int) error) error {
	width = min(width, n)
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// Async runs f on its own goroutine and returns the call that waits for it
// to return — for a caller with work of its own to do while a fan-out runs.
// The caller must join on every path.
func Async(f func()) (join func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return func() { <-done }
}
