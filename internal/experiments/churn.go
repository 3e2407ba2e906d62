package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/netgraph"
	"repro/internal/stats"
	"repro/internal/units"
)

// ChurnRow is one ground-pair's route-dynamics summary.
type ChurnRow struct {
	Name            string
	GeodesicKm      float64
	MedianPathLifeS float64
	PathChanges     int
	MeanLatencyMs   float64
	JitterMs        float64
	Stretch         float64
}

// ChurnStudy monitors representative ground-to-ground routes over Starlink
// and reports path lifetime, latency jitter, and stretch over the geodesic
// bound — the network-transit face of "highly dynamic yet predictable".
func ChurnStudy(durationSec, stepSec float64) ([]ChurnRow, error) {
	if durationSec <= 0 {
		durationSec = 1800
	}
	if stepSec <= 0 {
		stepSec = 15
	}
	set := ConstellationSet{Starlink: true}
	consts, err := set.build()
	if err != nil {
		return nil, err
	}
	c := consts[0]

	pairs := []struct {
		name string
		a, b geo.LatLon
	}{
		{"NewYork-London", geo.LatLon{LatDeg: 40.71, LonDeg: -74.01}, geo.LatLon{LatDeg: 51.51, LonDeg: -0.13}},
		{"Frankfurt-Singapore", geo.LatLon{LatDeg: 50.11, LonDeg: 8.68}, geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}},
		{"SaoPaulo-Lagos", geo.LatLon{LatDeg: -23.55, LonDeg: -46.63}, geo.LatLon{LatDeg: 6.52, LonDeg: 3.38}},
		{"Abuja-Accra", geo.LatLon{LatDeg: 9.06, LonDeg: 7.49}, geo.LatLon{LatDeg: 5.60, LonDeg: -0.19}},
	}
	var out []ChurnRow
	for _, p := range pairs {
		// The four routes sample the same instants; the shared engine
		// propagates each once.
		net := netgraph.New(c, []geo.LatLon{p.a, p.b}).UseEphemeris(engineFor(c))
		rep, err := monitorPair(net, 0, 1, 0, durationSec, stepSec)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn %s: %w", p.name, err)
		}
		geodesic := geo.GreatCircleKm(p.a, p.b)
		row := ChurnRow{
			Name:          p.name,
			GeodesicKm:    geodesic,
			PathChanges:   len(rep.changes),
			MeanLatencyMs: rep.latency.Mean(),
			JitterMs:      rep.jitterMs(),
			// Stretch of the mean latency over straight-line propagation
			// along the great circle.
			Stretch: math.Inf(1),
		}
		if rep.latency.N() > 0 {
			row.Stretch = rep.latency.Mean() / units.PropagationDelayMs(geodesic)
		}
		if rep.pathLifetimes.N() > 0 {
			row.MedianPathLifeS = rep.pathLifetimes.Median()
		}
		out = append(out, row)
	}
	return out, nil
}

// pathChange is one routing event on a monitored pair.
type pathChange struct {
	// timeSec is when the shortest path changed.
	timeSec float64
	// oldMs and newMs are the one-way latencies before and after.
	oldMs, newMs float64
	// hopsChanged counts nodes present in exactly one of the two paths.
	hopsChanged int
}

// pairReport summarises the route dynamics of one ground pair.
type pairReport struct {
	// changes lists the path-change events in time order.
	changes []pathChange
	// latency aggregates the one-way latency samples.
	latency stats.Summary
	// pathLifetimes collects the durations between path changes.
	pathLifetimes *stats.CDF
	// unreachableSamples counts instants with no path at all.
	unreachableSamples int
	// samples is the number of instants evaluated.
	samples int
}

// jitterMs returns max-min of the observed latency — the latency swing an
// application sees as the constellation rotates beneath the route.
func (r pairReport) jitterMs() float64 {
	if r.latency.N() == 0 {
		return 0
	}
	return r.latency.Max() - r.latency.Min()
}

// hopDelta counts nodes in exactly one of the two paths.
func hopDelta(a, b netgraph.Path) int {
	inA := make(map[netgraph.NodeID]bool, len(a.Nodes))
	for _, n := range a.Nodes {
		inA[n] = true
	}
	delta := 0
	for _, n := range b.Nodes {
		if inA[n] {
			delete(inA, n)
		} else {
			delta++
		}
	}
	return delta + len(inA)
}

// monitorPair samples the shortest path between ground stations gi and gj
// every stepSec over [t0, t0+durationSec] and reports the route dynamics.
func monitorPair(net *netgraph.Network, gi, gj int, t0, durationSec, stepSec float64) (pairReport, error) {
	if gi == gj {
		return pairReport{}, fmt.Errorf("experiments: same endpoint %d", gi)
	}
	if durationSec <= 0 || stepSec <= 0 {
		return pairReport{}, fmt.Errorf("experiments: positive duration and step required")
	}
	rep := pairReport{pathLifetimes: stats.NewCDF()}
	var (
		havePath  bool
		current   netgraph.Path
		pathSince float64
	)
	for t := t0; t <= t0+durationSec; t += stepSec {
		rep.samples++
		p, err := net.At(t).ShortestPath(net.GroundNode(gi), net.GroundNode(gj))
		if err != nil {
			rep.unreachableSamples++
			if havePath {
				rep.pathLifetimes.Add(t - pathSince)
				havePath = false
			}
			continue
		}
		rep.latency.Add(p.OneWayMs)
		if !havePath {
			current = p
			pathSince = t
			havePath = true
			continue
		}
		if !slices.Equal(current.Nodes, p.Nodes) {
			rep.changes = append(rep.changes, pathChange{
				timeSec:     t,
				oldMs:       current.OneWayMs,
				newMs:       p.OneWayMs,
				hopsChanged: hopDelta(current, p),
			})
			rep.pathLifetimes.Add(t - pathSince)
			current = p
			pathSince = t
		}
	}
	if havePath {
		rep.pathLifetimes.Add(t0 + durationSec - pathSince)
	}
	return rep, nil
}
