package experiments

import (
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/netgraph"
	"repro/internal/units"
)

func churnNet(t *testing.T, grounds []geo.LatLon) *netgraph.Network {
	t.Helper()
	c, err := constellation.Build("t", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 24, PhaseFactor: 5, MinElevationDeg: 10},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return netgraph.New(c, grounds)
}

func TestMonitorPairBasics(t *testing.T) {
	grounds := []geo.LatLon{
		{LatDeg: 40.71, LonDeg: -74.01}, // New York
		{LatDeg: 51.51, LonDeg: -0.13},  // London
	}
	net := churnNet(t, grounds)
	rep, err := monitorPair(net, 0, 1, 0, 600, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.samples != 61 {
		t.Fatalf("samples = %d", rep.samples)
	}
	if rep.latency.N()+rep.unreachableSamples != rep.samples {
		t.Fatalf("sample accounting broken: %d + %d != %d",
			rep.latency.N(), rep.unreachableSamples, rep.samples)
	}
	// Transatlantic latency stays within physical bounds.
	geodesic := units.PropagationDelayMs(geo.GreatCircleKm(grounds[0], grounds[1]))
	if rep.latency.N() > 0 && rep.latency.Min() < geodesic {
		t.Fatalf("latency %v beats the geodesic bound %v", rep.latency.Min(), geodesic)
	}
	// Changes are time-ordered with consistent latencies.
	prev := -1.0
	for _, ch := range rep.changes {
		if ch.timeSec <= prev {
			t.Fatalf("changes out of order at %v", ch.timeSec)
		}
		prev = ch.timeSec
		if ch.hopsChanged <= 0 {
			t.Fatalf("change without hop delta: %+v", ch)
		}
		if ch.oldMs <= 0 || ch.newMs <= 0 {
			t.Fatalf("degenerate change latencies: %+v", ch)
		}
	}
	// Lifetime accounting: one lifetime per change plus the final open
	// period, when the pair stays reachable throughout.
	if rep.unreachableSamples == 0 && rep.pathLifetimes.N() != len(rep.changes)+1 {
		t.Fatalf("lifetimes %d, want changes+1 = %d", rep.pathLifetimes.N(), len(rep.changes)+1)
	}
	// Over 10 minutes the shortest transatlantic path changes at least once
	// (satellites move ~4,500 km in that time).
	if len(rep.changes) == 0 {
		t.Fatal("no path change in 10 minutes of LEO motion")
	}
	if rep.jitterMs() <= 0 {
		t.Fatal("no latency jitter recorded")
	}
}

func TestMonitorPairValidation(t *testing.T) {
	net := churnNet(t, []geo.LatLon{{LatDeg: 0}, {LatDeg: 10}})
	if _, err := monitorPair(net, 0, 0, 0, 10, 1); err == nil {
		t.Fatal("same endpoints accepted")
	}
	if _, err := monitorPair(net, 0, 1, 0, 0, 1); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := monitorPair(net, 0, 1, 0, 10, 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestUnreachablePair(t *testing.T) {
	// A polar ground station the 53° shell cannot see.
	grounds := []geo.LatLon{
		{LatDeg: 89.5, LonDeg: 0},
		{LatDeg: 0, LonDeg: 0},
	}
	net := churnNet(t, grounds)
	rep, err := monitorPair(net, 0, 1, 0, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.unreachableSamples == 0 {
		t.Skip("pole unexpectedly covered")
	}
	if rep.latency.N() != rep.samples-rep.unreachableSamples {
		t.Fatal("latency samples inconsistent with unreachable count")
	}
}
