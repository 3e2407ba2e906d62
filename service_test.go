package inorbit

import (
	"math"
	"testing"

	"repro/internal/compute"
)

// denseService builds a service over a moderate 1,024-satellite shell so the
// integration tests stay fast; preset-constellation behaviour is covered by
// the facade tests, the bench harness and the skippable test below.
func denseService(t testing.TB) *Service {
	t.Helper()
	c, err := BuildConstellation("test", []Shell{
		{Name: "low", AltitudeKm: 550, InclinationDeg: 53, Planes: 32, SatsPerPlane: 32, PhaseFactor: 11, MinElevationDeg: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCustom(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := New("atlantis"); err == nil {
		t.Fatal("unknown constellation accepted")
	}
	if _, err := NewCustom(nil); err == nil {
		t.Fatal("nil constellation accepted")
	}
	c, err := BuildConstellation("x", []Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 2, SatsPerPlane: 2, MinElevationDeg: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Option{
		"invalid server spec":    WithServer(compute.ServerSpec{Cores: -1, MemoryGB: 1, PowerCapFraction: 1}),
		"negative ISL bandwidth": WithISLBandwidth(-1),
		"NaN ISL bandwidth":      WithISLBandwidth(math.NaN()),
		"infinite ISL bandwidth": WithISLBandwidth(math.Inf(1)),
	} {
		if _, err := NewCustom(c, opt); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// A fleet-only setting is checked where the fleet is built.
	svc, err := NewCustom(c, WithStepSec(math.NaN()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.NewFleet(); err == nil {
		t.Fatal("NaN fleet step accepted")
	}
}

func TestPresetConstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full constellations")
	}
	for _, choice := range []ConstellationChoice{Starlink, Kuiper, Telesat} {
		s, err := New(choice)
		if err != nil {
			t.Fatalf("%s: %v", choice, err)
		}
		if s.Servers() == 0 {
			t.Fatalf("%s: no servers", choice)
		}
	}
}

func TestEdgeView(t *testing.T) {
	s := denseService(t)
	loc := LatLon{LatDeg: 9.06, LonDeg: 7.49}
	view, err := s.Edge(0, loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Reachable) == 0 {
		t.Fatal("no reachable servers over a dense shell")
	}
	if view.NearestRTTMs <= 3.5 || view.NearestRTTMs > 10 {
		t.Fatalf("nearest RTT = %v", view.NearestRTTMs)
	}
	if view.FarthestRTTMs < view.NearestRTTMs {
		t.Fatal("farthest below nearest")
	}
	if view.TotalCores != float64(len(view.Reachable))*64 {
		t.Fatalf("TotalCores = %v", view.TotalCores)
	}
	if !s.Covered(0, loc) {
		t.Fatal("Covered disagrees with Edge")
	}
}

func TestEdgeUncovered(t *testing.T) {
	s := denseService(t)
	pole := LatLon{LatDeg: 89.9, LonDeg: 0}
	view, err := s.Edge(0, pole)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Reachable) != 0 {
		t.Skip("pole unexpectedly covered")
	}
	if !math.IsInf(view.NearestRTTMs, 1) || !math.IsInf(view.FarthestRTTMs, 1) {
		t.Fatalf("uncovered RTTs = %v/%v, want +Inf", view.NearestRTTMs, view.FarthestRTTMs)
	}
	if s.Covered(0, pole) {
		t.Fatal("pole should not be covered")
	}
}

func TestEdgeInvalidLocation(t *testing.T) {
	s := denseService(t)
	if _, err := s.Edge(0, LatLon{LatDeg: 120}); err == nil {
		t.Fatal("invalid location accepted")
	}
}

// TestCoveredInvalidLocation: Covered agrees with Edge on a location Edge
// rejects — it is not covered.
func TestCoveredInvalidLocation(t *testing.T) {
	s := denseService(t)
	for _, loc := range []LatLon{{LatDeg: 500}, {LatDeg: math.NaN()}, {LonDeg: 181}} {
		if _, err := s.Edge(0, loc); err == nil {
			t.Fatalf("Edge accepted %v", loc)
		}
		if s.Covered(0, loc) {
			t.Fatalf("Covered(%v) = true", loc)
		}
	}
}

func TestAccessors(t *testing.T) {
	s := denseService(t)
	if s.Constellation() == nil || s.Observer() == nil || s.Grid() == nil || s.Ephemeris() == nil {
		t.Fatal("nil accessor")
	}
	if s.Servers() != 1024 {
		t.Fatalf("Servers = %d", s.Servers())
	}
}

func TestFeasibilityPassthrough(t *testing.T) {
	s := denseService(t)
	r, err := s.Feasibility()
	if err != nil {
		t.Fatal(err)
	}
	if r.CostRatio <= 0 {
		t.Fatal("empty feasibility report")
	}
}

func TestVirtualServerLifecycle(t *testing.T) {
	s := denseService(t)
	users := []LatLon{
		{LatDeg: 9.06, LonDeg: 7.49},
		{LatDeg: 8.50, LonDeg: 9.00},
	}
	state := State{SessionMB: 64, GenericMB: 1024, DirtyRateMBps: 8}
	vs, err := s.PlaceVirtualServer(users, Sticky, state)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Policy() != Sticky {
		t.Fatal("policy accessor wrong")
	}
	rep, err := vs.Run(0, 1800, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != len(rep.Handoffs) {
		t.Fatalf("migrations (%d) misaligned with handoffs (%d)", len(rep.Migrations), len(rep.Handoffs))
	}
	for i, m := range rep.Migrations {
		if m.DowntimeSec <= 0 {
			t.Fatalf("migration %d zero downtime: %+v", i, m)
		}
		// Live migration with replicate-ahead keeps downtime well under a
		// second for 64 MB of session state over a multi-Gbps ISL.
		if m.DowntimeSec > 1 {
			t.Fatalf("migration %d downtime %v s too large", i, m.DowntimeSec)
		}
	}
	sum := 0.0
	for _, m := range rep.Migrations {
		sum += m.DowntimeSec
	}
	if math.Abs(sum-rep.TotalDowntimeSec) > 1e-9 {
		t.Fatal("TotalDowntimeSec mismatch")
	}
	if rep.RTT.N() > 0 && rep.GEOAdvantage < 10 {
		t.Fatalf("GEO advantage = %v, expected LEO to win big", rep.GEOAdvantage)
	}
}

func TestVirtualServerValidation(t *testing.T) {
	s := denseService(t)
	users := []LatLon{{LatDeg: 9.06, LonDeg: 7.49}}
	if _, err := s.PlaceVirtualServer(users, MinMax, State{SessionMB: -1}); err == nil {
		t.Fatal("invalid state accepted")
	}
	if _, err := s.PlaceVirtualServer(nil, MinMax, State{}); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestMeetupIntegration(t *testing.T) {
	s := denseService(t)
	p, err := s.Meetup([]LatLon{{LatDeg: 9.06, LonDeg: 7.49}})
	if err != nil {
		t.Fatal(err)
	}
	cand, err := p.SelectMinMax(s.Ephemeris().SnapshotAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if cand.GroupRTTMs <= 0 {
		t.Fatal("no RTT for single-user group")
	}
}
