package fleet

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
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
	for _, s := range o.tab.Ordered() {
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

// seriesCount pairs one kept fleet_* decision counter with the count of an
// EpochReport it must move by.
type seriesCount struct {
	name string
	ctr  *obs.Counter
	n    int
}

func decisionSeries(m *metricsSet, rep EpochReport) []seriesCount {
	return []seriesCount{
		{`fleet_placements_total{kind="initial"}`, m.placeInitial, rep.Placements},
		{`fleet_placements_total{kind="handoff"}`, m.placeHandoff, rep.Handoffs},
		{"fleet_rejections_total", m.rejections, rep.Rejections},
		{`fleet_faults_total{kind="sat_fail"}`, m.faultSatFail, rep.SatFailures},
		{`fleet_faults_total{kind="sat_recover"}`, m.faultSatRec, rep.SatRecoveries},
		{`fleet_faults_total{kind="migration_fail"}`, m.faultMig, rep.MigrationFailures},
		{`fleet_faults_total{kind="isl_degraded"}`, m.faultISL, rep.ISLDegradations},
		{`fleet_evacuations_total{result="ok"}`, m.evacOK, rep.Evacuations},
		{`fleet_evacuations_total{result="deferred"}`, m.evacDeferred, rep.EvacuationsDeferred},
		{"fleet_retry_backoff_deferrals_total", m.retryDeferred, rep.BackoffDeferrals},
		{"fleet_epochs_total", m.epochs, 1},
	}
}

// lifetimeCounts lists Stats' cumulative fields; reportCounts lists what one
// EpochReport adds to each, in the same order.
func lifetimeCounts(st Stats) [13]uint64 {
	return [...]uint64{st.Placements, st.Handoffs, st.Rejections, st.Departures, st.Epochs, st.Expiring,
		st.Evacuations, st.EvacuationsDeferred, st.MigrationFailures, st.BackoffDeferrals,
		st.ISLDegradations, st.SatFailures, st.SatRecoveries}
}

func reportCounts(rep EpochReport) [13]uint64 {
	return [...]uint64{uint64(rep.Placements), uint64(rep.Handoffs), uint64(rep.Rejections),
		uint64(rep.Departures), 1, uint64(rep.Expiring), uint64(rep.Evacuations),
		uint64(rep.EvacuationsDeferred), uint64(rep.MigrationFailures), uint64(rep.BackoffDeferrals),
		uint64(rep.ISLDegradations), uint64(rep.SatFailures), uint64(rep.SatRecoveries)}
}

// tally runs Steps and checks after each one that every kept decision
// counter moved by exactly its report count, that the gauges read the
// report, and that Stats' cumulative fields are the running sums of the
// reports.
type tally struct{ sums [13]uint64 }

func (tl *tally) step(t *testing.T, o *Orchestrator) EpochReport {
	t.Helper()
	var before []uint64
	for _, sc := range decisionSeries(o.m, EpochReport{}) {
		before = append(before, sc.ctr.Value())
	}
	rep, err := o.Step()
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range decisionSeries(o.m, rep) {
		if d := sc.ctr.Value() - before[i]; d != uint64(sc.n) {
			t.Fatalf("t=%v: %s moved by %d, the report counts %d", rep.TSec, sc.name, d, sc.n)
		}
	}
	if g, a := o.m.sessions.Value(), o.m.assigned.Value(); g != float64(rep.Sessions) || a != float64(rep.Assigned) {
		t.Fatalf("t=%v: gauges read %v sessions, %v assigned; the report %d, %d", rep.TSec, g, a, rep.Sessions, rep.Assigned)
	}
	for i, n := range reportCounts(rep) {
		tl.sums[i] += n
	}
	if got := lifetimeCounts(o.Stats()); got != tl.sums {
		t.Fatalf("t=%v: Stats counts %v, the reports sum to %v", rep.TSec, got, tl.sums)
	}
	return rep
}

// TestEvacuationOnFailure is the graceful-degradation anchor: under
// permanent satellite failures every session leaves its dead satellite the
// epoch the failure is consumed, no session is ever assigned to a down
// satellite, and after every Step each event is in the epoch report, the
// fleet_faults_*/fleet_evacuations_* counters and Stats alike.
func TestEvacuationOnFailure(t *testing.T) {
	o, inj := chaosOrch(t, 60, faults.Config{
		Seed:         7,
		SatMTBFHours: 2,  // ~0.5%/min per satellite on 1024 sats
		SatMTTRSec:   -1, // the paper's no-repairs regime
	})

	var tl tally
	for epoch := 0; epoch < 30; epoch++ {
		rep := tl.step(t, o)

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

	st := o.Stats()
	if st.SatFailures == 0 {
		t.Fatal("no satellite failures in 30 min at 2 h MTBF over 1024 satellites")
	}
	if st.SatRecoveries != 0 {
		t.Fatalf("%d recoveries under permanent failures", st.SatRecoveries)
	}
	if st.Evacuations == 0 {
		t.Fatal("failures hit no session satellite — evacuation path untested (tune seed/rates)")
	}
	_, evacuating, _ := auditSessions(o, inj)
	if got := int(o.m.evacPending.Value()); got != evacuating || st.EvacuationsPending != evacuating {
		t.Errorf("fleet_evacuations_pending = %d, Stats %d, table says %d", got, st.EvacuationsPending, evacuating)
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
	for _, s := range o.tab.Ordered() {
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

// TestBooksHoldUnderChaos: the capacity books stay exact through failures,
// flapping ISLs, failed migrations, arrivals and departures. After every
// Step each satellite's booked cores equal the summed demand of the
// sessions holding it and stay within its effective cores, the report's
// assigned count is the table's, every submitted session is live or
// departed, and the counters and Stats tally the report. Colocated 25-core
// arrivals, two to a 64-core satellite, make admission spill and reject.
func TestBooksHoldUnderChaos(t *testing.T) {
	o, _ := chaosOrch(t, 60, faults.Config{
		Seed: 5, SatMTBFHours: 1, SatMTTRSec: 600, ISLFlapPerHour: 6, MigrationFailProb: 0.2,
	})
	eff := o.cfg.Server.EffectiveCores()
	submitted, departed := 60, 0
	var tot EpochReport
	var tl tally
	for epoch := 0; epoch < 25; epoch++ {
		if epoch%5 == 0 {
			for _, s := range colocated(t, 12, 25, 8) {
				s.ID += uint64(1000 * (epoch + 1))
				s.ExpiresAt = o.Now() + float64(300+60*(s.ID%7))
				if err := o.Submit(s); err != nil {
					t.Fatal(err)
				}
				submitted++
			}
		}
		rep := tl.step(t, o)
		departed += rep.Departures
		tot.Handoffs += rep.Handoffs
		tot.Rejections += rep.Rejections
		tot.SatFailures += rep.SatFailures
		tot.MigrationFailures += rep.MigrationFailures
		tot.ISLDegradations += rep.ISLDegradations

		held, assigned := make([]float64, len(o.usedCores)), 0
		for _, s := range o.tab.Ordered() {
			if s.Sat >= 0 {
				held[s.Sat] += s.CoresDemand
				assigned++
			}
		}
		for id, used := range o.usedCores {
			if math.Abs(used-held[id]) > 1e-9 {
				t.Fatalf("epoch %d: sat %d books %v cores, its sessions hold %v", epoch, id, used, held[id])
			}
			if used > eff+1e-9 {
				t.Fatalf("epoch %d: sat %d books %v cores of %v effective", epoch, id, used, eff)
			}
		}
		if rep.Assigned != assigned {
			t.Fatalf("epoch %d: report assigns %d sessions, the table %d", epoch, rep.Assigned, assigned)
		}
		if live := o.tab.Len(); submitted != live+departed {
			t.Fatalf("epoch %d: %d submitted, %d live + %d departed", epoch, submitted, live, departed)
		}
	}
	if departed == 0 || tot.Handoffs == 0 || tot.Rejections == 0 || tot.SatFailures == 0 ||
		tot.MigrationFailures == 0 || tot.ISLDegradations == 0 {
		t.Fatalf("a path is not exercised: %d departures, totals %+v", departed, tot)
	}
	t.Logf("%d submitted, %d departed: %d hand-offs, %d rejections, %d failures, %d failed migrations, %d flapped transfers",
		submitted, departed, tot.Handoffs, tot.Rejections, tot.SatFailures, tot.MigrationFailures, tot.ISLDegradations)
}
