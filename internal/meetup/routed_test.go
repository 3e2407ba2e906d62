package meetup

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constellation"
	"repro/internal/ephem"
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
	return GroupNetwork(ephem.New(c, ephem.Config{}), users, dcs)
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
	l0 := snap.LatencyToAllSatsInto(0, nil)
	l1 := snap.LatencyToAllSatsInto(1, nil)
	for id := range l0 {
		if math.IsInf(l0[id], 1) || math.IsInf(l1[id], 1) {
			continue
		}
		worst := 2 * math.Max(l0[id], l1[id])
		if worst < placed.GroupRTTMs-1e-9 {
			t.Fatalf("sat %d at %v ms beats placement %v ms", id, worst, placed.GroupRTTMs)
		}
	}
	// The group RTT is the worst of the per-user values.
	hi := math.Inf(-1)
	for _, v := range placed.PerUserRTTMs {
		hi = math.Max(hi, v)
	}
	if placed.GroupRTTMs != hi {
		t.Fatalf("group RTT %v, worst user %v", placed.GroupRTTMs, hi)
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
