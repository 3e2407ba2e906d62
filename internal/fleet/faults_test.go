package fleet

import (
	"reflect"
	"testing"

	"repro/internal/faults"
)

// chaosOrch builds an orchestrator over the toy constellation with a fault
// injector, returning both.
func chaosOrch(t testing.TB, nSessions int, fc faults.Config) (*Orchestrator, *faults.Injector) {
	t.Helper()
	c := toyConst(t)
	inj, err := faults.New(c.Size(), fc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Faults = inj
	o, err := New(c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SubmitBatch(testGroups(t, nSessions)); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	return o, inj
}

// auditSessions scans the whole table and returns (assigned, evacuating,
// onDownSat) counts.
func auditSessions(o *Orchestrator, inj *faults.Injector) (assigned, evacuating, onDown int) {
	for _, s := range o.Table().Ordered() {
		if s.Sat >= 0 {
			assigned++
			if !inj.SatUp(s.Sat) {
				onDown++
			}
		}
		if s.Evacuating {
			evacuating++
		}
	}
	return
}

// TestEvacuationOnFailure is the graceful-degradation anchor: under
// permanent satellite failures every session leaves its dead satellite the
// epoch the failure is consumed, no session is ever assigned to a down
// satellite, and every event shows up in both the epoch report and the
// fleet_faults_*/fleet_evacuations_* metrics.
func TestEvacuationOnFailure(t *testing.T) {
	o, inj := chaosOrch(t, 60, faults.Config{
		Seed:         7,
		SatMTBFHours: 2,  // ~0.5%/min per satellite on 1024 sats
		SatMTTRSec:   -1, // the paper's no-repairs regime
	})

	var totFail, totRec, totEvac, totEvacDef, totRej int
	for epoch := 0; epoch < 30; epoch++ {
		rep, err := o.Step()
		if err != nil {
			t.Fatal(err)
		}
		totFail += rep.SatFailures
		totRec += rep.SatRecoveries
		totEvac += rep.Evacuations
		totEvacDef += rep.EvacuationsDeferred
		totRej += rep.Rejections

		assigned, _, onDown := auditSessions(o, inj)
		if onDown != 0 {
			t.Fatalf("epoch %d: %d sessions still assigned to down satellites", epoch, onDown)
		}
		if assigned != rep.Assigned {
			t.Fatalf("epoch %d: table says %d assigned, report says %d", epoch, assigned, rep.Assigned)
		}
		if rep.DownSats != inj.DownCount() {
			t.Fatalf("epoch %d: report DownSats=%d, injector says %d", epoch, rep.DownSats, inj.DownCount())
		}
		// No silently dropped sessions: everything is tracked, and every
		// unassigned session is pending (evacuating or retrying next epoch).
		if rep.Sessions != 60 {
			t.Fatalf("epoch %d: %d sessions tracked, want 60", epoch, rep.Sessions)
		}
	}

	if totFail == 0 {
		t.Fatal("no satellite failures in 30 min at 2 h MTBF over 1024 satellites")
	}
	if totRec != 0 {
		t.Fatalf("%d recoveries under permanent failures", totRec)
	}
	if totEvac == 0 {
		t.Fatal("failures hit no session satellite — evacuation path untested (tune seed/rates)")
	}

	// The metrics must agree with the summed reports exactly.
	if got := int(o.m.faultSatFail.Value()); got != totFail {
		t.Errorf("fleet_faults_total{sat_fail} = %d, want %d", got, totFail)
	}
	if got := int(o.m.evacOK.Value()); got != totEvac {
		t.Errorf("fleet_evacuations_total{ok} = %d, want %d", got, totEvac)
	}
	if got := int(o.m.evacDeferred.Value()); got != totEvacDef {
		t.Errorf("fleet_evacuations_total{deferred} = %d, want %d", got, totEvacDef)
	}
	if got := int(o.m.rejections.Value()); got != totRej {
		t.Errorf("fleet_rejections_total = %d, want %d", got, totRej)
	}
	_, evacuating, _ := auditSessions(o, inj)
	if got := int(o.m.evacPending.Value()); got != evacuating {
		t.Errorf("fleet_evacuations_pending = %d, table says %d", got, evacuating)
	}
}

// TestMigrationFailureBackoff: with a high injected transfer-failure
// probability, hand-offs fail and retry under capped exponential backoff —
// failures and deferrals are counted, and no session is lost.
func TestMigrationFailureBackoff(t *testing.T) {
	o, inj := chaosOrch(t, 60, faults.Config{
		Seed:              3,
		MigrationFailProb: 0.9,
	})

	var totMigFail, totBackoff, totHandoffs int
	for epoch := 0; epoch < 60; epoch++ {
		rep, err := o.Step()
		if err != nil {
			t.Fatal(err)
		}
		totMigFail += rep.MigrationFailures
		totBackoff += rep.BackoffDeferrals
		totHandoffs += rep.Handoffs
		if rep.Sessions != 60 {
			t.Fatalf("epoch %d: session count %d, want 60", epoch, rep.Sessions)
		}
		if _, _, onDown := auditSessions(o, inj); onDown != 0 {
			t.Fatalf("epoch %d: session on a down satellite with failures disabled", epoch)
		}
	}
	if totMigFail == 0 {
		t.Fatal("no migration failures at p=0.9 over 60 epochs")
	}
	if totBackoff == 0 {
		t.Fatal("no backoff deferrals despite migration failures")
	}
	if totHandoffs == 0 {
		t.Fatal("no hand-off ever succeeded at p=0.9 — retries appear broken")
	}
	if got := int(o.m.faultMig.Value()); got != totMigFail {
		t.Errorf("fleet_faults_total{migration_fail} = %d, want %d", got, totMigFail)
	}
	if got := int(o.m.retryDeferred.Value()); got != totBackoff {
		t.Errorf("fleet_retry_backoff_deferrals_total = %d, want %d", got, totBackoff)
	}

	// Any session that completed a hand-off must have its backoff cleared.
	for _, s := range o.Table().Ordered() {
		if s.Handoffs > 0 && s.Sat >= 0 && s.Retries != 0 && s.RetryAt == 0 {
			t.Errorf("session %d: retries not reset after successful hand-off", s.ID)
		}
	}
}

// TestBackoffGrowth pins the capped exponential schedule.
func TestBackoffGrowth(t *testing.T) {
	cfg := testConfig()
	cfg.RetryBaseSec = 60
	cfg.RetryCapSec = 480
	o, err := New(toyConst(t), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{60, 120, 240, 480, 480, 480}
	for i, w := range want {
		if got := o.backoffSec(i + 1); got != w {
			t.Fatalf("backoffSec(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestChaosDeterminism: two orchestrators with identical seeds and fault
// configs must produce identical epoch report sequences (wall time aside)
// — the property the fleetsim CSV reproducibility contract rests on.
func TestChaosDeterminism(t *testing.T) {
	run := func() []EpochReport {
		o, _ := chaosOrch(t, 50, faults.Config{
			Seed:              11,
			SatMTBFHours:      1,
			SatMTTRSec:        300,
			ISLFlapPerHour:    10,
			MigrationFailProb: 0.2,
		})
		var out []EpochReport
		for epoch := 0; epoch < 25; epoch++ {
			rep, err := o.Step()
			if err != nil {
				t.Fatal(err)
			}
			rep.WallSec = 0 // the only nondeterministic field
			out = append(out, rep)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("epoch %d diverged:\n  %+v\n  %+v", i, a[i], b[i])
			}
		}
		t.Fatal("runs diverged")
	}
}

// TestNoPlacementsOnDownSatellites: with most of the constellation failed,
// proposals must only ever target live satellites.
func TestNoPlacementsOnDownSatellites(t *testing.T) {
	o, inj := chaosOrch(t, 40, faults.Config{
		Seed:         2,
		SatMTBFHours: 0.2, // aggressive: most satellites die within the run
		SatMTTRSec:   -1,
	})
	for epoch := 0; epoch < 20; epoch++ {
		if _, err := o.Step(); err != nil {
			t.Fatal(err)
		}
		if _, _, onDown := auditSessions(o, inj); onDown != 0 {
			t.Fatalf("epoch %d: placement on a down satellite", epoch)
		}
	}
	if inj.DownCount() == 0 {
		t.Fatal("no satellite went down — test exercised nothing")
	}
}
