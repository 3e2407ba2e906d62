package fleet

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/faults"
)

// runEpochs drives one orchestrator over a fixed workload and returns its
// epoch reports plus the final (session → satellite) assignment map.
func runEpochs(t testing.TB, cfg Config, nSessions, epochs int) ([]EpochReport, map[uint64]int) {
	t.Helper()
	o, err := New(toyConst(t), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SubmitBatch(testGroups(t, nSessions)); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	reps := make([]EpochReport, 0, epochs)
	for i := 0; i < epochs; i++ {
		rep, err := o.Step()
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	sats := map[uint64]int{}
	tab := o.Table()
	for si := 0; si < tab.NumShards(); si++ {
		tab.Shard(si, func(m map[uint64]*Session) {
			for id, s := range m {
				sats[id] = s.Sat
			}
		})
	}
	return reps, sats
}

// TestPlannerWorkerInvariance is the planner's core determinism contract:
// the worker count (including the inline one-worker path) must never change
// a decision. Every width reproduces the same epoch reports and final
// assignments.
func TestPlannerWorkerInvariance(t *testing.T) {
	baseCfg := testConfig()
	baseCfg.Workers = 1
	baseReps, baseSats := runEpochs(t, baseCfg, 60, 10)

	for _, workers := range []int{2, 4, 8} {
		cfg := testConfig()
		cfg.Workers = workers
		reps, sats := runEpochs(t, cfg, 60, 10)
		for i := range baseReps {
			if !reflect.DeepEqual(stripWallClock(reps[i]), stripWallClock(baseReps[i])) {
				t.Fatalf("workers=%d epoch %d diverged:\n%+v\nwant\n%+v", workers, i, reps[i], baseReps[i])
			}
		}
		if !reflect.DeepEqual(sats, baseSats) {
			t.Fatalf("workers=%d final assignments diverged", workers)
		}
	}
}

// stripWallClock zeroes the non-deterministic wall-clock field so reports
// compare on decisions only.
func stripWallClock(rep EpochReport) EpochReport {
	rep.WallSec = 0
	return rep
}

// TestPlannerAllCandidatesDead: an immediate permanent all-satellite
// failure leaves every session's candidate set dead mid-epoch. The
// streaming loop must keep rejecting (not crash, not assign to a corpse)
// and account every session as evacuating.
func TestPlannerAllCandidatesDead(t *testing.T) {
	o, inj := chaosOrch(t, 30, faults.Config{
		Seed:         3,
		SatMTBFHours: 1e-6, // every satellite fails in the first epoch
		SatMTTRSec:   -1,   // permanently
	})
	for epoch := 0; epoch < 4; epoch++ {
		rep, err := o.Step()
		if err != nil {
			t.Fatal(err)
		}
		// Epoch 0 runs at t=0, before any failure fires; epoch 1 consumes
		// the full burst (every draw lands within milliseconds of t=0).
		if epoch == 1 && rep.SatFailures != o.Constellation().Size() {
			t.Fatalf("epoch 1: %d failures, want all %d satellites", rep.SatFailures, o.Constellation().Size())
		}
		if epoch > 0 && rep.Assigned != 0 {
			t.Fatalf("epoch %d: %d sessions assigned with zero live satellites", epoch, rep.Assigned)
		}
	}
	assigned, evacuating, onDown := auditSessions(o, inj)
	if assigned != 0 || onDown != 0 {
		t.Fatalf("%d assigned (%d on down sats) after total failure", assigned, onDown)
	}
	if evacuating != 30 {
		t.Fatalf("%d sessions evacuating, want all 30", evacuating)
	}
	st := o.Stats()
	if st.DownSats != o.Constellation().Size() || st.EvacuationsPending != 30 {
		t.Fatalf("Stats down=%d pending=%d, want %d/%d",
			st.DownSats, st.EvacuationsPending, o.Constellation().Size(), 30)
	}
}

// FuzzSpillOrder pins the admission order against its definition: the band
// ranked by cmpBand, its first PoolSize entries, then everything else
// sorted by cmpByRTT. The planner only sorts the pool and heap-orders the
// rest, so the pool followed by successive heap pops must reproduce the
// reference at every position — duplicate RTTs, empty bands and pools
// wider than the band included.
func FuzzSpillOrder(f *testing.F) {
	f.Add([]byte{3, 1, 3, 0, 7, 2, 1, 1, 7, 3, 0, 0}, uint8(3), uint8(2), false)
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, uint8(5), uint8(8), true)
	f.Add([]byte{9, 0}, uint8(0), uint8(1), false)
	f.Add([]byte{}, uint8(0), uint8(5), false)
	f.Fuzz(func(t *testing.T, raw []byte, bandByte, poolByte uint8, descendingIDs bool) {
		n := len(raw) / 2
		cands := make([]candidate, n)
		for i := range cands {
			id := i
			if descendingIDs {
				id = n - 1 - i
			}
			// Few distinct RTTs and lives, so ties reach the ID tie-break.
			cands[i] = candidate{id: id, rtt: float64(raw[2*i] % 8), life: int(raw[2*i+1] % 4)}
		}
		band := int(bandByte) % (n + 1)
		poolSize := 1 + int(poolByte)%8

		want := slices.Clone(cands)
		slices.SortFunc(want[:band], cmpBand)
		slices.SortFunc(want[min(band, poolSize):], cmpByRTT)

		pool := rankForAdmission(cands, band, poolSize)
		if pool != min(band, poolSize) {
			t.Fatalf("pool %d, want min(band %d, PoolSize %d)", pool, band, poolSize)
		}
		got := slices.Clone(cands[:pool])
		for spill := cands[pool:]; len(spill) > 0; spill = popSpill(spill) {
			got = append(got, spill[0])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("band %d PoolSize %d:\n got %v\nwant %v", band, poolSize, got, want)
		}
	})
}

// TestResetClearsScratchAfterFailedStep: a Step that fails inside admission
// returns with its chunk's proposals still in the worker arenas. The next
// epoch's reset must drop them, or every later epoch appends after them.
func TestResetClearsScratchAfterFailedStep(t *testing.T) {
	o, err := New(toyConst(t), nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SubmitBatch(testGroups(t, 60)); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(); err != nil {
		t.Fatal(err)
	}
	// Make the first hand-off's migration costing fail.
	o.cfg.DirtyRateMBps = 1e12
	for epoch := 0; err == nil; epoch++ {
		if epoch == 30 {
			t.Fatal("no hand-off in 30 epochs")
		}
		_, err = o.Step()
	}
	stale := 0
	for w := range o.pl.workers {
		stale += len(o.pl.workers[w].arena)
	}
	if stale == 0 {
		t.Fatal("failed Step left no proposals behind — the scenario no longer reaches the bug")
	}
	o.pl.reset()
	for w := range o.pl.workers {
		if sc := &o.pl.workers[w]; len(sc.arena) != 0 || len(sc.rows) != 0 {
			t.Fatalf("worker %d keeps %d candidates and %d row entries across reset", w, len(sc.arena), len(sc.rows))
		}
	}
}
