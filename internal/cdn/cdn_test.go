package cdn

import (
	"math"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/visibility"
)

func popSet() []geo.LatLon {
	// A sparse CDN: PoPs in the usual metro hubs only, mirroring the
	// paper's point that large regions have no nearby edge.
	return []geo.LatLon{
		{LatDeg: 40.71, LonDeg: -74.01},  // New York
		{LatDeg: 51.51, LonDeg: -0.13},   // London
		{LatDeg: 1.35, LonDeg: 103.82},   // Singapore
		{LatDeg: -33.87, LonDeg: 151.21}, // Sydney
		{LatDeg: -26.20, LonDeg: 28.05},  // Johannesburg
		{LatDeg: -23.55, LonDeg: -46.63}, // Sao Paulo
	}
}

func TestTerrestrialValidate(t *testing.T) {
	if err := (Terrestrial{}).Defaults().Validate(); err == nil {
		t.Fatal("no PoPs accepted")
	}
	bad := Terrestrial{PoPs: popSet(), FiberSpeedFraction: 1.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("bad fiber speed accepted")
	}
	bad2 := Terrestrial{PoPs: popSet(), FiberSpeedFraction: 0.67, PathInflation: 0.5}
	if err := bad2.Validate(); err == nil {
		t.Fatal("inflation < 1 accepted")
	}
	bad3 := Terrestrial{PoPs: popSet(), FiberSpeedFraction: 0.67, PathInflation: 2, LastMileMs: -1}
	if err := bad3.Validate(); err == nil {
		t.Fatal("negative last mile accepted")
	}
}

func TestTerrestrialRTTNearPoP(t *testing.T) {
	m := Terrestrial{PoPs: popSet()}
	// A client in London is basically at a PoP: RTT ≈ 2×last-mile = 10 ms.
	rtt, err := m.RTTMs(geo.LatLon{LatDeg: 51.50, LonDeg: -0.12})
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 9 || rtt > 12 {
		t.Fatalf("near-PoP RTT = %v ms", rtt)
	}
}

func TestTerrestrialRTTRemote(t *testing.T) {
	// The paper: CDN edge latencies exceed 100 ms in many places. A client
	// in Chad is ~4,000 km from Johannesburg/London-class PoPs.
	m := Terrestrial{PoPs: popSet()}
	rtt, err := m.RTTMs(geo.LatLon{LatDeg: 12.13, LonDeg: 15.06}) // N'Djamena
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 80 {
		t.Fatalf("remote RTT = %v ms, expected ≥80 (the paper's 100+ regime)", rtt)
	}
}

// TestNearestPoPKm: a client standing on a PoP is zero km from the nearest
// one, so its RTT is the two last-mile legs alone.
func TestNearestPoPKm(t *testing.T) {
	m := Terrestrial{PoPs: popSet()}
	rtt, err := m.RTTMs(geo.LatLon{LatDeg: 40.71, LonDeg: -74.01})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * m.Defaults().LastMileMs; math.Abs(rtt-want) > 1e-9 {
		t.Fatalf("RTT at a PoP = %v ms, want the last mile's %v", rtt, want)
	}
}

func TestOrbitalRTT(t *testing.T) {
	c, err := constellation.Build("t", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 24, PhaseFactor: 5, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := Orbital{Observer: visibility.NewObserver(c), ProcessingMs: 1}
	snap := c.Snapshot(0)
	rtt, ok := o.RTTMs(geo.LatLon{LatDeg: 12.13, LonDeg: 15.06}, snap)
	if !ok {
		t.Skip("coverage gap at the sample instant")
	}
	// Nearest-satellite RTT: ≥ overhead RTT (3.7 ms) + 1 ms processing,
	// ≤ mask worst case (7.5 ms) + 1.
	if rtt < 4.5 || rtt > 9 {
		t.Fatalf("orbital RTT = %v ms", rtt)
	}
	// Polar client with a 53° shell: no coverage.
	if _, ok := o.RTTMs(geo.LatLon{LatDeg: 89, LonDeg: 0}, snap); ok {
		t.Fatal("polar client should be uncovered")
	}
}

func TestCompareAdvantage(t *testing.T) {
	c, err := constellation.Build("t", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 24, PhaseFactor: 5, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ter := Terrestrial{PoPs: popSet()}
	orb := Orbital{Observer: visibility.NewObserver(c)}
	clients := []geo.LatLon{
		{LatDeg: 12.13, LonDeg: 15.06}, // N'Djamena: remote from CDN
		{LatDeg: 51.50, LonDeg: -0.12}, // London: at a PoP
	}
	comps, err := Compare(ter, orb, clients, c.Snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("got %d comparisons", len(comps))
	}
	remote, london := comps[0], comps[1]
	if remote.OrbitalCovered && remote.Advantage() < 5 {
		t.Fatalf("remote advantage = %.1f, expected large", remote.Advantage())
	}
	if london.OrbitalCovered && london.Advantage() > 3 {
		t.Fatalf("london advantage = %.1f, expected modest", london.Advantage())
	}
	// Advantage of an uncovered client is 0.
	uncov := Comparison{TerrestrialMs: 100, OrbitalCovered: false}
	if uncov.Advantage() != 0 {
		t.Fatal("uncovered advantage should be 0")
	}
}

func TestCompareValidation(t *testing.T) {
	if _, err := Compare(Terrestrial{}, Orbital{}, nil, nil); err == nil {
		t.Fatal("empty models accepted")
	}
	if _, err := Compare(Terrestrial{PoPs: popSet()}, Orbital{}, nil, nil); err == nil {
		t.Fatal("nil observer accepted")
	}
}

func TestDefaultsIdempotent(t *testing.T) {
	m := Terrestrial{PoPs: popSet(), FiberSpeedFraction: 0.9, PathInflation: 1.2, LastMileMs: 1}
	d := m.Defaults()
	if d.FiberSpeedFraction != 0.9 || d.PathInflation != 1.2 || d.LastMileMs != 1 {
		t.Fatal("Defaults overwrote explicit values")
	}
	z := (Terrestrial{PoPs: popSet()}).Defaults()
	if z.FiberSpeedFraction != 0.67 || z.PathInflation != 2.0 || math.Abs(z.LastMileMs-5) > 1e-12 {
		t.Fatalf("zero defaults wrong: %+v", z)
	}
}
