// Package cdn models §3.1, CDN and edge computing: latency from clients to
// the nearest terrestrial CDN point of presence versus the nearest
// satellite-server. Terrestrial paths ride fiber (2/3 c) with Internet
// route circuity; satellite paths are free-space slant ranges.
package cdn

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/units"
	"repro/internal/visibility"
)

// Terrestrial models the ground CDN.
type Terrestrial struct {
	// PoPs are the CDN points of presence.
	PoPs []geo.LatLon
	// FiberSpeedFraction is signal speed in fiber as a fraction of c
	// (default 0.67).
	FiberSpeedFraction float64
	// PathInflation multiplies great-circle distance to account for route
	// circuity (default 2.0, a common Internet measurement figure).
	PathInflation float64
	// LastMileMs is fixed per-direction access latency added to every path
	// (default 5 ms: access network + peering).
	LastMileMs float64
}

// Defaults fills zero fields with the standard model parameters.
func (t Terrestrial) Defaults() Terrestrial {
	if t.FiberSpeedFraction == 0 {
		t.FiberSpeedFraction = 0.67
	}
	if t.PathInflation == 0 {
		t.PathInflation = 2.0
	}
	if t.LastMileMs == 0 {
		t.LastMileMs = 5
	}
	return t
}

// Validate reports whether the model is usable.
func (t Terrestrial) Validate() error {
	if len(t.PoPs) == 0 {
		return fmt.Errorf("cdn: no PoPs")
	}
	if t.FiberSpeedFraction <= 0 || t.FiberSpeedFraction > 1 {
		return fmt.Errorf("cdn: fiber speed fraction %v outside (0,1]", t.FiberSpeedFraction)
	}
	if t.PathInflation < 1 {
		return fmt.Errorf("cdn: path inflation %v must be >= 1", t.PathInflation)
	}
	if t.LastMileMs < 0 {
		return fmt.Errorf("cdn: negative last-mile latency")
	}
	return nil
}

// RTTMs returns the client's round-trip time to the nearest PoP under the
// terrestrial model.
func (t Terrestrial) RTTMs(client geo.LatLon) (float64, error) {
	t = t.Defaults()
	if err := t.Validate(); err != nil {
		return 0, err
	}
	best := math.Inf(1)
	for _, p := range t.PoPs {
		if d := geo.GreatCircleKm(client, p); d < best {
			best = d
		}
	}
	oneWay := best*t.PathInflation/(units.SpeedOfLightKmS*t.FiberSpeedFraction)*1000 + t.LastMileMs
	return 2 * oneWay, nil
}

// Orbital models the satellite edge.
type Orbital struct {
	// Observer evaluates satellite visibility.
	Observer *visibility.Observer
	// ProcessingMs is fixed per-request server time added to the RTT.
	ProcessingMs float64
}

// RTTMs returns the client's RTT to the nearest reachable satellite-server
// at the given constellation snapshot, with ok=false during coverage gaps.
func (o Orbital) RTTMs(client geo.LatLon, snapshot []geo.Vec3) (float64, bool) {
	_, slant, ok := o.Observer.Nearest(client.ECEF(), snapshot)
	if !ok {
		return 0, false
	}
	return units.RTTMs(slant) + o.ProcessingMs, true
}

// Comparison is one client's terrestrial-vs-orbital latency pair.
type Comparison struct {
	Client        geo.LatLon
	TerrestrialMs float64
	OrbitalMs     float64
	// OrbitalCovered is false when no satellite was reachable.
	OrbitalCovered bool
}

// Advantage returns how many times lower the orbital RTT is (values > 1
// mean the satellite edge wins).
func (c Comparison) Advantage() float64 {
	if !c.OrbitalCovered || c.OrbitalMs <= 0 {
		return 0
	}
	return c.TerrestrialMs / c.OrbitalMs
}

// Compare evaluates both models for a set of clients at one snapshot.
func Compare(t Terrestrial, o Orbital, clients []geo.LatLon, snapshot []geo.Vec3) ([]Comparison, error) {
	t = t.Defaults()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if o.Observer == nil {
		return nil, fmt.Errorf("cdn: orbital model needs an observer")
	}
	out := make([]Comparison, 0, len(clients))
	for _, cl := range clients {
		ter, err := t.RTTMs(cl)
		if err != nil {
			return nil, err
		}
		orb, ok := o.RTTMs(cl, snapshot)
		out = append(out, Comparison{Client: cl, TerrestrialMs: ter, OrbitalMs: orb, OrbitalCovered: ok})
	}
	return out, nil
}
