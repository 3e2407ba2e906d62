package meetup

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/netgraph"
)

func routedNet(t *testing.T, users, dcs []geo.LatLon) *netgraph.Network {
	t.Helper()
	c, err := constellation.Build("r", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 24, PhaseFactor: 5, MinElevationDeg: 10},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return GroupNetwork(NewProvider(c), users, dcs)
}

func TestBestRoutedSingleUser(t *testing.T) {
	users := []geo.LatLon{{LatDeg: 20, LonDeg: 30}}
	net := routedNet(t, users, nil)
	snap := net.At(0)
	placed, err := BestRouted(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	// For one user the best routed server is the nearest visible
	// satellite: RTT equals twice the one-hop latency.
	if len(placed.PerUserRTTMs) != 1 || math.Abs(placed.PerUserRTTMs[0]-placed.GroupRTTMs) > 1e-9 {
		t.Fatalf("single-user placement inconsistent: %+v", placed)
	}
	if placed.GroupRTTMs < 3.5 || placed.GroupRTTMs > 15 {
		t.Fatalf("single-user RTT %v out of range", placed.GroupRTTMs)
	}
	if placed.SpreadMs() != 0 {
		t.Fatalf("single-user spread %v", placed.SpreadMs())
	}
}

func TestBestRoutedOptimality(t *testing.T) {
	users := []geo.LatLon{
		{LatDeg: 10, LonDeg: 0},
		{LatDeg: -10, LonDeg: 40},
	}
	net := routedNet(t, users, nil)
	snap := net.At(0)
	placed, err := BestRouted(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	// No satellite offers a lower max RTT: cross-check against the raw
	// per-user latency vectors.
	l0 := snap.LatencyToAllSats(0)
	l1 := snap.LatencyToAllSats(1)
	for id := range l0 {
		if math.IsInf(l0[id], 1) || math.IsInf(l1[id], 1) {
			continue
		}
		worst := 2 * math.Max(l0[id], l1[id])
		if worst < placed.GroupRTTMs-1e-9 {
			t.Fatalf("sat %d at %v ms beats placement %v ms", id, worst, placed.GroupRTTMs)
		}
	}
	// Spread is consistent with the per-user values.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range placed.PerUserRTTMs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if math.Abs(placed.SpreadMs()-(hi-lo)) > 1e-9 {
		t.Fatalf("spread mismatch: %v vs %v", placed.SpreadMs(), hi-lo)
	}
}

func TestSpreadMsEdgeCases(t *testing.T) {
	// A zero-user placement (e.g. a zero value carried through an error
	// path) and a single-user placement both have zero spread by definition.
	if got := (RoutedPlacement{}).SpreadMs(); got != 0 {
		t.Fatalf("zero-user spread = %v", got)
	}
	if got := (RoutedPlacement{PerUserRTTMs: []float64{12.5}}).SpreadMs(); got != 0 {
		t.Fatalf("one-user spread = %v", got)
	}
	if got := (RoutedPlacement{PerUserRTTMs: []float64{12.5, 10, 14}}).SpreadMs(); got != 4 {
		t.Fatalf("spread = %v, want 4", got)
	}
}

func TestBestRoutedValidation(t *testing.T) {
	users := []geo.LatLon{{LatDeg: 0, LonDeg: 0}}
	net := routedNet(t, users, nil)
	if _, err := BestRouted(net.At(0), 0); err == nil {
		t.Fatal("zero users accepted")
	}
}

func TestBestRoutedNoCoverage(t *testing.T) {
	users := []geo.LatLon{{LatDeg: 89.5, LonDeg: 0}}
	net := routedNet(t, users, nil)
	snap := net.At(0)
	if len(snap.VisibleSats(0)) > 0 {
		t.Skip("pole unexpectedly covered")
	}
	if _, err := BestRouted(snap, 1); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("err = %v, want ErrNoCandidate", err)
	}
}
