package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestQuantileVecConcurrentWith hammers the vec lookup itself — every
// Observe goes through With, mixing a shared series with per-worker ones —
// so the label-map path is exercised under the race detector, not just the
// cached child.
func TestQuantileVecConcurrentWith(t *testing.T) {
	r := NewRegistry()
	qv := r.QuantileVec("work_seconds", "", "worker")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := fmt.Sprintf("w%d", w)
			for i := 0; i < perWorker; i++ {
				qv.With("shared").Observe(1.5)
				qv.With(own).Observe(0.5)
			}
		}(w)
	}
	wg.Wait()
	if got := qv.With("shared").Count(); got != workers*perWorker {
		t.Errorf("shared quantile count = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := qv.With(fmt.Sprintf("w%d", w)).Count(); got != perWorker {
			t.Errorf("worker %d count = %d, want %d", w, got, perWorker)
		}
	}
}
