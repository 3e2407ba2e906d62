package fleet

import (
	"reflect"
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
