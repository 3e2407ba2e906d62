package inorbit

import (
	"math"
	"testing"
)

// The facade tests exercise the public API the README documents, over the
// real Starlink preset (construction is fast; queries are cheap).

func service(t testing.TB) *Service {
	t.Helper()
	svc, err := New(Starlink)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestQuickstartFlow(t *testing.T) {
	svc := service(t)
	if svc.Servers() != 4409 {
		t.Fatalf("Servers = %d, want 4409", svc.Servers())
	}
	view, err := svc.Edge(0, LatLon{LatDeg: 9.06, LonDeg: 7.49})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline numbers: nearest ≈4 ms, farthest ≤16 ms, tens
	// of servers in view.
	if view.NearestRTTMs < 3.6 || view.NearestRTTMs > 12 {
		t.Fatalf("nearest RTT = %v", view.NearestRTTMs)
	}
	if view.FarthestRTTMs > 16.5 {
		t.Fatalf("farthest RTT = %v", view.FarthestRTTMs)
	}
	if len(view.Reachable) < 20 {
		t.Fatalf("only %d servers in view", len(view.Reachable))
	}
}

func TestCustomConstellation(t *testing.T) {
	c, err := BuildConstellation("mini", []Shell{
		{Name: "m", AltitudeKm: 600, InclinationDeg: 55, Planes: 10, SatsPerPlane: 10, MinElevationDeg: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewCustom(c)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Servers() != 100 {
		t.Fatalf("Servers = %d", svc.Servers())
	}
}

func TestVirtualServerFacade(t *testing.T) {
	svc := service(t)
	users := []LatLon{{LatDeg: 9.06, LonDeg: 7.49}, {LatDeg: 8.5, LonDeg: 9.0}}
	vs, err := svc.PlaceVirtualServer(users, Sticky, State{SessionMB: 16, DirtyRateMBps: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := vs.Run(0, 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RTT.N() == 0 {
		t.Fatal("no latency samples")
	}
	if rep.RTT.Mean() <= 0 || math.IsNaN(rep.RTT.Mean()) {
		t.Fatalf("mean RTT = %v", rep.RTT.Mean())
	}
	if len(rep.Migrations) != len(rep.Handoffs) {
		t.Fatal("migrations misaligned with hand-offs")
	}
}

func TestPolicyConstantsDistinct(t *testing.T) {
	if MinMax == Sticky {
		t.Fatal("policy constants collide")
	}
	if MinMax.String() != "minmax" || Sticky.String() != "sticky" {
		t.Fatal("policy names wrong")
	}
}

func TestFleetFacade(t *testing.T) {
	svc := service(t)
	f, err := svc.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]LatLon{
		{{LatDeg: 9.06, LonDeg: 7.49}, {LatDeg: 8.5, LonDeg: 9.0}},
		{{LatDeg: 51.5, LonDeg: -0.1}, {LatDeg: 48.9, LonDeg: 2.35}},
	}
	for i, users := range groups {
		s, err := NewFleetSession(uint64(i+1), users)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Start(0); err != nil {
		t.Fatal(err)
	}
	rep, err := f.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 2 || rep.Assigned != 2 {
		t.Fatalf("report %+v, want both sessions assigned", rep)
	}
	for id := uint64(1); id <= 2; id++ {
		s, ok := f.Table().Get(id)
		if !ok || s.Sat < 0 || s.RTTMs <= 0 {
			t.Fatalf("session %d not placed: %+v", id, s)
		}
	}
}

// TestFleetOptionsEquivalence pins the two option routes to each other:
// the same tuning expressed service-wide (WithFleet) or per orchestrator
// (FleetOptions) must run the same workload to identical epoch reports and
// final assignments.
func TestFleetOptionsEquivalence(t *testing.T) {
	groups := [][]LatLon{
		{{LatDeg: 9.06, LonDeg: 7.49}, {LatDeg: 8.5, LonDeg: 9.0}},
		{{LatDeg: 51.5, LonDeg: -0.1}, {LatDeg: 48.9, LonDeg: 2.35}},
		{{LatDeg: -23.5, LonDeg: -46.6}, {LatDeg: -22.9, LonDeg: -43.2}},
	}
	run := func(f *Fleet) ([]EpochReportLike, map[uint64]int) {
		t.Helper()
		for i, users := range groups {
			s, err := NewFleetSession(uint64(i+1), users)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Submit(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Start(0); err != nil {
			t.Fatal(err)
		}
		var reps []EpochReportLike
		for i := 0; i < 5; i++ {
			rep, err := f.Step()
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, EpochReportLike{rep.Sessions, rep.Assigned, rep.Placements, rep.Handoffs, rep.Rejections})
		}
		sats := map[uint64]int{}
		for id := uint64(1); id <= uint64(len(groups)); id++ {
			s, ok := f.Table().Get(id)
			if !ok {
				t.Fatalf("session %d missing", id)
			}
			sats[id] = s.Sat
		}
		return reps, sats
	}

	wide, err := New(Starlink, WithFleet(FleetConfig{StepSec: 30, LookaheadSec: 900}))
	if err != nil {
		t.Fatal(err)
	}
	oldF, err := wide.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	newF, err := service(t).NewFleet(WithFleetEpoch(30), WithFleetLookahead(900))
	if err != nil {
		t.Fatal(err)
	}
	oldReps, oldSats := run(oldF)
	newReps, newSats := run(newF)
	for i := range oldReps {
		if oldReps[i] != newReps[i] {
			t.Fatalf("epoch %d diverged: old %+v new %+v", i, oldReps[i], newReps[i])
		}
	}
	for id, sat := range oldSats {
		if newSats[id] != sat {
			t.Fatalf("session %d: old sat %d, new sat %d", id, sat, newSats[id])
		}
	}

	st := newF.Stats()
	if st.Sessions != len(groups) || st.Epochs != 5 {
		t.Fatalf("Stats = %+v, want %d sessions over 5 epochs", st, len(groups))
	}
}

// EpochReportLike is the comparable core of an epoch report.
type EpochReportLike struct {
	Sessions, Assigned, Placements, Handoffs, Rejections int
}

// smallService builds a service over a 48-satellite custom shell so option
// tests don't pay Starlink-scale construction per case.
func smallService(t testing.TB, opts ...Option) *Service {
	t.Helper()
	c, err := BuildConstellation("opt-test", []Shell{{
		Name: "s", AltitudeKm: 600, InclinationDeg: 55,
		Planes: 6, SatsPerPlane: 8, MinElevationDeg: 25,
	}})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewCustom(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestOptionsFacade(t *testing.T) {
	svc := smallService(t,
		WithStepSec(30),
		WithWorkers(2),
		WithFaults(FaultConfig{Seed: 3, SatMTBFHours: 4, SatMTTRSec: 600}),
	)

	// Faults() reflects WithFaults and builds a fresh injector per call.
	inj, ok, err := svc.Faults()
	if err != nil || !ok || inj == nil {
		t.Fatalf("Faults() = %v, %v, %v; want armed", inj, ok, err)
	}
	inj2, _, _ := svc.Faults()
	if inj == inj2 {
		t.Fatal("Faults() must build independent injectors")
	}

	// NewFleet() honours the construction options and shares the service's
	// ephemeris engine; each call is an independent orchestrator.
	fl, err := svc.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	if any(fl.Ephemeris()) != svc.Ephemeris() {
		t.Fatal("Fleet must share the service-wide ephemeris engine")
	}
	fl2, err := svc.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	if fl == fl2 {
		t.Fatal("NewFleet() must build independent orchestrators")
	}
	if err := fl.Start(0); err != nil {
		t.Fatal(err)
	}
}

func TestFaultsWithoutOption(t *testing.T) {
	svc := smallService(t)
	inj, ok, err := svc.Faults()
	if inj != nil || ok || err != nil {
		t.Fatalf("Faults() = %v, %v, %v; want unarmed", inj, ok, err)
	}
}

func TestOptionOrderAndLegacyMerge(t *testing.T) {
	// A negative ISL rate is rejected at construction.
	if _, err := New(Telesat, WithISLBandwidth(-1)); err == nil {
		t.Fatal("WithISLBandwidth must reach construction-time validation")
	}
	// Later options win: a valid rate repairs the earlier one.
	if _, err := New(Telesat, WithISLBandwidth(-1), WithISLBandwidth(2.5)); err != nil {
		t.Fatalf("later option should override earlier option: %v", err)
	}
}

func TestEphemerisFacadeMatchesPropagator(t *testing.T) {
	svc := smallService(t)
	eph := svc.Ephemeris()
	c := svc.Constellation()
	if eph.Size() != c.Size() {
		t.Fatalf("Size() = %d, want %d", eph.Size(), c.Size())
	}
	for _, tSec := range []float64{0, 17.25, 60, 3600} {
		snap := eph.SnapshotAt(tSec)
		for i, s := range c.Satellites {
			if want := s.Prop.ECEFAt(tSec); snap[i] != want {
				t.Fatalf("t=%v sat %d: %v, want %v", tSec, i, snap[i], want)
			}
		}
	}
	if err := eph.SnapshotInto(0, make([]Vec3, 3)); err == nil {
		t.Fatal("SnapshotInto must reject a wrong-length dst")
	}
}
