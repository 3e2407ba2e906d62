package fleet

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/meetup"
	"repro/internal/obs"
	"repro/internal/visibility"
)

// toyConst: dense single shell so regional groups always see several
// satellites, small enough that multi-epoch tests stay fast under -race.
func toyConst(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("toy", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 32, SatsPerPlane: 32, PhaseFactor: 11, MinElevationDeg: 20},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testConfig() Config {
	return Config{
		StepSec:      60,
		LookaheadSec: 1200,
		Registry:     obs.NewRegistry(),
	}
}

// visibleAll is the planner's full-group visibility test against any
// snapshot, not just a ring slot: sat is visible to every user of s.
func visibleAll(o *Orchestrator, s *Session, sat int, snap []geo.Vec3) bool {
	for _, u := range s.Users {
		if !o.obs.Visible(u, sat, snap[sat]) {
			return false
		}
	}
	return true
}

// testGroups scatters n small groups over mid-latitude land-ish points,
// deterministically.
func testGroups(t testing.TB, n int) []*Session {
	t.Helper()
	anchors := []geo.LatLon{
		{LatDeg: 9.1, LonDeg: 7.5},     // Abuja
		{LatDeg: 51.5, LonDeg: -0.1},   // London
		{LatDeg: 35.7, LonDeg: 139.7},  // Tokyo
		{LatDeg: -23.5, LonDeg: -46.6}, // São Paulo
		{LatDeg: 40.7, LonDeg: -74.0},  // New York
	}
	var out []*Session
	for i := 0; i < n; i++ {
		a := anchors[i%len(anchors)]
		users := []geo.LatLon{
			geo.Destination(a, float64(i*37%360), 40+float64(i%7)*30),
			geo.Destination(a, float64(i*91%360), 60+float64(i%5)*25),
			geo.Destination(a, float64(i*151%360), 20+float64(i%3)*50),
		}
		s, err := NewSession(uint64(i+1), users)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	c := toyConst(t)
	if _, err := New(nil, nil, testConfig()); err == nil {
		t.Fatal("nil constellation should fail")
	}
	bad := testConfig()
	bad.LookaheadSec = 10 // < step
	if _, err := New(c, nil, bad); err == nil {
		t.Fatal("lookahead < step should fail")
	}
	bad = testConfig()
	bad.DirtyRateMBps = 1e9 // >= link bandwidth
	if _, err := New(c, nil, bad); err == nil {
		t.Fatal("dirty rate above bandwidth should fail")
	}
	bad = testConfig()
	bad.CellDeg = 0.01
	if _, err := New(c, nil, bad); err == nil {
		t.Fatal("bad cell size should fail")
	}
	bad = testConfig()
	bad.Server = compute.ServerSpec{Cores: 8} // no memory
	if _, err := New(c, nil, bad); err == nil {
		t.Fatal("server without memory should fail")
	}
}

func TestStepRequiresStart(t *testing.T) {
	o, err := New(toyConst(t), nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(); err == nil {
		t.Fatal("Step before Start should fail")
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err == nil {
		t.Fatal("double Start should fail")
	}
}

func TestSubmitValidation(t *testing.T) {
	o, err := New(toyConst(t), nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Submit(nil); err == nil {
		t.Fatal("nil session should fail")
	}
	if err := o.Submit(&Session{ID: 1}); err == nil {
		t.Fatal("session without users should fail")
	}
	s := testGroups(t, 1)[0]
	s.CoresDemand = -1
	if err := o.Submit(s); err == nil {
		t.Fatal("negative demand should fail")
	}
}

// TestResubmitKeepsLiveAssignment: re-submitting a session the table already
// holds is refused and must leave it as it was — placed, with the books
// still holding its task — so the following epochs run clean.
func TestResubmitKeepsLiveAssignment(t *testing.T) {
	o, err := New(toyConst(t), nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := testGroups(t, 1)[0]
	if err := o.Submit(s); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	rep, err := o.Step()
	if err != nil || rep.Assigned != 1 || s.Sat < 0 {
		t.Fatalf("first epoch: assigned %d, sat %d, err %v", rep.Assigned, s.Sat, err)
	}
	sat := s.Sat
	if err := o.Submit(s); err == nil {
		t.Fatal("duplicate submit accepted")
	}
	if s.Sat != sat {
		t.Fatalf("refused submit moved the session off sat %d to %d", sat, s.Sat)
	}
	for epoch := 0; epoch < 3; epoch++ {
		rep, err := o.Step()
		if err != nil {
			t.Fatalf("epoch %d after the refused submit: %v", epoch, err)
		}
		if rep.Assigned != 1 {
			t.Fatalf("epoch %d: %d assigned, want 1", epoch, rep.Assigned)
		}
	}
}

// TestStartRejectsForeignEphemeris: a shared engine over another
// constellation hands back snapshots of the wrong size; that is a typed
// error out of Start, not a panic in the index.
func TestStartRejectsForeignEphemeris(t *testing.T) {
	other, err := constellation.Build("other", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 3, SatsPerPlane: 3, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Ephem = ephem.New(other, ephem.Config{Registry: cfg.Registry})
	o, err := New(toyConst(t), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); !errors.Is(err, visibility.ErrSnapshotSize) {
		t.Fatalf("Start over a foreign engine: %v, want ErrSnapshotSize", err)
	}
}

// TestOrchestratorLifecycle runs the planner long enough that satellites
// set over the groups: sessions place, migrate with costed hand-offs, and
// the capacity books stay balanced every epoch.
func TestOrchestratorLifecycle(t *testing.T) {
	c := toyConst(t)
	o, err := New(c, nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sessions := testGroups(t, 40)
	if err := o.SubmitBatch(sessions); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}

	totalHandoffs := 0
	for epoch := 0; epoch < 40; epoch++ {
		rep, err := o.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sessions != len(sessions) {
			t.Fatalf("epoch %d: %d sessions tracked, want %d", epoch, rep.Sessions, len(sessions))
		}
		if rep.Assigned > rep.Sessions || rep.Assigned < 0 {
			t.Fatalf("epoch %d: assigned %d out of range", epoch, rep.Assigned)
		}
		// Capacity books: the sum of placed demand must equal the assigned
		// sessions' demand exactly.
		assigned := 0
		demand := 0.0
		for _, s := range sessions {
			if s.Sat >= 0 {
				assigned++
				demand += s.CoresDemand
			}
		}
		if assigned != rep.Assigned {
			t.Fatalf("epoch %d: report says %d assigned, table says %d", epoch, rep.Assigned, assigned)
		}
		used := 0.0
		for _, u := range o.Utilization() {
			used += u * o.cfg.Server.EffectiveCores()
		}
		if math.Abs(used-demand) > 1e-6 {
			t.Fatalf("epoch %d: nodes hold %.3f cores, sessions demand %.3f", epoch, used, demand)
		}
		totalHandoffs += rep.Handoffs
		if rep.Handoffs > 0 {
			if rep.Transfer.N() != rep.Handoffs || rep.Downtime.N() != rep.Handoffs {
				t.Fatalf("epoch %d: %d hand-offs but %d transfer / %d downtime samples",
					epoch, rep.Handoffs, rep.Transfer.N(), rep.Downtime.N())
			}
			if rep.Transfer.Min() <= 0 || rep.Downtime.Min() < 0 {
				t.Fatalf("epoch %d: non-positive migration cost: %v / %v", epoch, rep.Transfer, rep.Downtime)
			}
		}
	}
	if totalHandoffs == 0 {
		t.Fatal("no hand-offs over 40 min of simulated LEO motion")
	}
	if o.Stats().ReplanMs.Count == 0 {
		t.Fatal("no placement-latency samples recorded")
	}
	for _, s := range sessions {
		if s.Sat >= 0 && s.RTTMs <= 0 {
			t.Fatalf("session %d assigned with zero RTT", s.ID)
		}
	}
}

// TestDeterminism: two orchestrators over the same workload must emit the
// same epoch reports and end with identical assignments.
func TestDeterminism(t *testing.T) {
	c := toyConst(t)
	run := func(workers int) ([]EpochReport, map[uint64]int) {
		cfg := testConfig()
		cfg.Workers = workers
		o, err := New(c, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessions := testGroups(t, 30)
		if err := o.SubmitBatch(sessions); err != nil {
			t.Fatal(err)
		}
		if err := o.Start(0); err != nil {
			t.Fatal(err)
		}
		var reps []EpochReport
		for i := 0; i < 15; i++ {
			rep, err := o.Step()
			if err != nil {
				t.Fatal(err)
			}
			rep.WallSec = 0 // wall clock is the one nondeterministic field
			reps = append(reps, rep)
		}
		final := map[uint64]int{}
		for _, s := range sessions {
			final[s.ID] = s.Sat
		}
		return reps, final
	}
	reps1, final1 := run(1)
	reps2, final2 := run(8)
	for i := range reps1 {
		if reps1[i] != reps2[i] {
			t.Fatalf("epoch %d diverges:\n  1 worker : %+v\n  8 workers: %+v", i, reps1[i], reps2[i])
		}
	}
	for id, sat := range final1 {
		if final2[id] != sat {
			t.Fatalf("session %d on sat %d vs %d", id, sat, final2[id])
		}
	}
}

// TestCapacitySpill: with one-session satellites, co-located sessions must
// fan out over distinct satellites instead of stacking or being rejected.
func TestCapacitySpill(t *testing.T) {
	c := toyConst(t)
	cfg := testConfig()
	cfg.Server = compute.ServerSpec{Cores: 1, MemoryGB: 4, PowerCapFraction: 1}
	o, err := New(c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loc := []geo.LatLon{{LatDeg: 9.1, LonDeg: 7.5}}
	var sessions []*Session
	for i := 0; i < 5; i++ {
		s, err := NewSession(uint64(i+1), loc)
		if err != nil {
			t.Fatal(err)
		}
		s.CoresDemand = 0.6 // two would exceed one core
		sessions = append(sessions, s)
	}
	if err := o.SubmitBatch(sessions); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	rep, err := o.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placements != 5 || rep.Rejections != 0 {
		t.Fatalf("placements %d rejections %d, want 5/0: %+v", rep.Placements, rep.Rejections, rep)
	}
	used := map[int]bool{}
	for _, s := range sessions {
		if s.Sat < 0 {
			t.Fatalf("session %d unassigned", s.ID)
		}
		if used[s.Sat] {
			t.Fatalf("two sessions stacked on sat %d with capacity for one", s.Sat)
		}
		used[s.Sat] = true
	}
}

// TestBooksFitDebitCredit: the capacity books fit against the effective
// cores and the memory, debit and credit a session's demand, and a credit
// frees the room for a full-capacity session.
func TestBooksFitDebitCredit(t *testing.T) {
	cfg := testConfig()
	cfg.Server = compute.ServerSpec{Cores: 8, MemoryGB: 64, PowerCapFraction: 1}
	o, err := New(toyConst(t), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	demand := func(cores, mem float64) *Session { return &Session{CoresDemand: cores, MemoryGB: mem} }
	half := demand(4, 32)
	o.debit(7, half)
	if got := o.Utilization()[7]; got != 0.5 {
		t.Fatalf("utilization %v after a half-server session, want 0.5", got)
	}
	if o.fits(7, demand(5, 0)) {
		t.Fatal("core overflow fits")
	}
	if o.fits(7, demand(1, 64)) {
		t.Fatal("memory overflow fits")
	}
	o.credit(7, half)
	if !o.fits(7, demand(8, 64)) {
		t.Fatal("full-capacity session does not fit after the credit")
	}
}

// placedCores sums, per satellite, the core demand of the sessions placed
// on it.
func placedCores(sessions []*Session) map[int]float64 {
	held := map[int]float64{}
	for _, s := range sessions {
		if s.Sat >= 0 {
			held[s.Sat] += s.CoresDemand
		}
	}
	return held
}

// colocated returns n sessions at one point, each demanding cores and mem.
func colocated(t *testing.T, n int, cores, mem float64) []*Session {
	t.Helper()
	var out []*Session
	for i := 0; i < n; i++ {
		s, err := NewSession(uint64(i+1), []geo.LatLon{{LatDeg: 9.1, LonDeg: 7.5}})
		if err != nil {
			t.Fatal(err)
		}
		s.CoresDemand, s.MemoryGB = cores, mem
		out = append(out, s)
	}
	return out
}

// TestPowerCapBoundsSessions: 64 cores capped to 25% are 16 effective. A
// 20-core session fits the raw hardware but not the power budget, so it is
// never placed; 4-core sessions fill satellites to exactly 16 cores and no
// further.
func TestPowerCapBoundsSessions(t *testing.T) {
	cfg := testConfig()
	cfg.Server = compute.ServerSpec{Cores: 64, MemoryGB: 256, PowerCapFraction: 0.25}
	o, err := New(toyConst(t), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sessions := colocated(t, 80, 4, 1)
	sessions[0].CoresDemand = 20
	if err := o.SubmitBatch(sessions); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	rep, err := o.Step()
	if err != nil {
		t.Fatal(err)
	}
	if sessions[0].Sat >= 0 {
		t.Fatalf("20-core session placed on sat %d with 16 effective cores", sessions[0].Sat)
	}
	if rep.Rejections < 2 {
		t.Fatalf("%d rejections: the 80 sessions should overflow the satellites in view", rep.Rejections)
	}
	full := 0
	for sat, cores := range placedCores(sessions) {
		if cores > 16 {
			t.Fatalf("sat %d holds %v cores of sessions, power cap allows 16", sat, cores)
		}
		if cores == 16 {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no satellite filled to exactly its effective cores")
	}
}

// TestMemoryBoundsSessions: a session larger than a satellite's memory is
// never placed, and 12 GB sessions stack at most two to a 32 GB server.
func TestMemoryBoundsSessions(t *testing.T) {
	cfg := testConfig()
	cfg.Server = compute.ServerSpec{Cores: 8, MemoryGB: 32, PowerCapFraction: 1}
	o, err := New(toyConst(t), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sessions := colocated(t, 60, 1, 12)
	sessions[0].MemoryGB = 40
	if err := o.SubmitBatch(sessions); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(); err != nil {
		t.Fatal(err)
	}
	if sessions[0].Sat >= 0 {
		t.Fatalf("40 GB session placed on sat %d with 32 GB", sessions[0].Sat)
	}
	perSat := map[int]int{}
	for _, s := range sessions {
		if s.Sat >= 0 {
			perSat[s.Sat]++
		}
	}
	for sat, n := range perSat {
		if n > 2 {
			t.Fatalf("sat %d holds %d 12 GB sessions in 32 GB", sat, n)
		}
	}
	if len(perSat) == 0 {
		t.Fatal("no session placed")
	}
}

// TestRejectionAndRetry: an oversized session is rejected every epoch but
// stays in the table.
func TestRejectionAndRetry(t *testing.T) {
	c := toyConst(t)
	cfg := testConfig()
	cfg.Server = compute.ServerSpec{Cores: 1, MemoryGB: 4, PowerCapFraction: 1}
	o, err := New(c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := testGroups(t, 1)[0]
	s.CoresDemand = 2 // larger than any satellite-server
	if err := o.Submit(s); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, err := o.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rejections != 1 || rep.Assigned != 0 || rep.Sessions != 1 {
			t.Fatalf("epoch %d: %+v, want 1 rejection, 0 assigned, 1 session", i, rep)
		}
	}
}

// TestDepartures: sessions leave at ExpiresAt and release their capacity.
func TestDepartures(t *testing.T) {
	c := toyConst(t)
	o, err := New(c, nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sessions := testGroups(t, 4)
	for _, s := range sessions {
		s.ExpiresAt = 90 // departs once now reaches 120
	}
	if err := o.SubmitBatch(sessions); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	rep, err := o.Step() // t=0: all place
	if err != nil {
		t.Fatal(err)
	}
	if rep.Departures != 0 || rep.Sessions != 4 {
		t.Fatalf("t=0: %+v", rep)
	}
	rep, err = o.Step() // t=60 < 90: still live
	if err != nil {
		t.Fatal(err)
	}
	if rep.Departures != 0 || rep.Sessions != 4 {
		t.Fatalf("t=60: %+v", rep)
	}
	rep, err = o.Step() // t=120 >= 90: all depart
	if err != nil {
		t.Fatal(err)
	}
	if rep.Departures != 4 || rep.Sessions != 0 || rep.Assigned != 0 {
		t.Fatalf("t=120: %+v", rep)
	}
	for _, u := range o.Utilization() {
		if u != 0 {
			t.Fatal("capacity not released on departure")
		}
	}
	if o.Table().Len() != 0 {
		t.Fatal("table not empty after departures")
	}
}

func TestRemoveReleasesCapacity(t *testing.T) {
	o, err := New(toyConst(t), nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := testGroups(t, 1)[0]
	if err := o.Submit(s); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(); err != nil {
		t.Fatal(err)
	}
	if s.Sat < 0 {
		t.Fatal("session did not place")
	}
	if !o.Remove(s.ID) {
		t.Fatal("Remove failed")
	}
	if o.Remove(s.ID) {
		t.Fatal("double Remove succeeded")
	}
	for _, u := range o.Utilization() {
		if u != 0 {
			t.Fatal("capacity not released on Remove")
		}
	}
}

// TestTimeToExpiryMatchesMeetup cross-validates the fleet's ring-based
// expiry against meetup.Planner.TimeToExpiry configured to the same step
// and horizon: both must agree exactly for the same group, satellite, and
// epoch.
func TestTimeToExpiryMatchesMeetup(t *testing.T) {
	c := toyConst(t)
	cfg := testConfig()
	o, err := New(c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sessions := testGroups(t, 10)
	if err := o.SubmitBatch(sessions); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(); err != nil {
		t.Fatal(err)
	}
	prov := meetup.NewProvider(c)
	grid := isl.NewPlusGrid(c)
	mCfg := meetup.Config{LookaheadStepSec: cfg.StepSec, LookaheadHorizonSec: cfg.LookaheadSec}
	checked := 0
	for _, s := range sessions {
		if s.Sat < 0 {
			continue
		}
		var users []geo.LatLon
		for _, u := range s.Users {
			users = append(users, geo.FromECEF(u))
		}
		p, err := meetup.NewPlanner(c, grid, users, mCfg)
		if err != nil {
			t.Fatal(err)
		}
		wantWarn, wantCapped := p.TimeToExpiry(prov, s.Sat, o.Now())
		gotWarn, gotCapped, err := o.TimeToExpiry(s)
		if err != nil {
			t.Fatal(err)
		}
		if gotWarn != wantWarn || gotCapped != wantCapped {
			t.Fatalf("session %d sat %d: fleet (%v, %v) vs meetup (%v, %v)",
				s.ID, s.Sat, gotWarn, gotCapped, wantWarn, wantCapped)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no assigned sessions to cross-validate")
	}
}

// TestMetricsExposed: the fleet_* families must render on the registry the
// debug mux serves.
func TestMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Registry = reg
	o, err := New(toyConst(t), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SubmitBatch(testGroups(t, 5)); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"fleet_sessions 5",
		"fleet_sessions_assigned",
		`fleet_placements_total{kind="initial"}`,
		"fleet_epochs_total 1",
		"fleet_placement_latency_seconds",
		"fleet_index_query_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metric %q missing from registry render:\n%s", want, text)
		}
	}
}
