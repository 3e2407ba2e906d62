package netgraph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/constellation"
	"repro/internal/obs"
)

// TestLatenciesWithinIsPrefixOfFullRow pins the contract the fleet planner's
// bounded transfer pricing rests on: a radius-bounded SSSP reports exactly
// the nodes the full row puts within the radius, each once, with the full
// row's value bit for bit.
func TestLatenciesWithinIsPrefixOfFullRow(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	walker, err := constellation.Build("walker", []constellation.Shell{{
		Name: "w", AltitudeKm: 500 + 700*rng.Float64(), InclinationDeg: 40 + 50*rng.Float64(),
		Planes: 5 + rng.Intn(8), SatsPerPlane: 5 + rng.Intn(8), PhaseFactor: rng.Intn(5), MinElevationDeg: 25,
	}}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*Network{
		"starlink": presetNet(t, "starlink"),
		"walker":   New(walker, diffGrounds),
	}
	for name, n := range nets {
		t.Run(name, func(t *testing.T) {
			s := n.At(rng.Float64() * orbitalPeriodSec)
			var got []NodeMs
			seen := make([]int, n.Nodes())
			for q := 0; q < 50; q++ {
				src := NodeID(rng.Intn(n.Nodes()))
				full := s.LatencyToAllNodesInto(src, nil)
				for _, radius := range []float64{0, 2, 8.5, 40, math.Inf(1)} {
					got = s.LatenciesWithin(src, radius, got[:0])
					clear(seen)
					last := 0.0
					for _, nm := range got {
						seen[nm.Node]++
						if math.Float64bits(nm.Ms) != math.Float64bits(full[nm.Node]) {
							t.Fatalf("src %d radius %v: node %d = %v, full row %v", src, radius, nm.Node, nm.Ms, full[nm.Node])
						}
						if nm.Ms < last {
							t.Fatalf("src %d radius %v: node %d settled out of order", src, radius, nm.Node)
						}
						last = nm.Ms
					}
					for v, d := range full {
						if want := b2i(d <= radius && !math.IsInf(d, 1)); seen[v] != want {
							t.Fatalf("src %d radius %v: node %d (full row %v) reported %d times, want %d", src, radius, v, d, seen[v], want)
						}
					}
					if radius == 0 && (len(got) != 1 || got[0] != NodeMs{src, 0}) {
						t.Fatalf("src %d radius 0: got %v, want the source alone", src, got)
					}
				}
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSSSPDurationRecordedOnce: every query entry point — SSSP, path and
// ISL — records one duration per query, so the netgraph_query_seconds{kind}
// sketch counts exactly what netgraph_queries_total{kind} counts. An entry
// point that nests another would record its queries twice.
func TestSSSPDurationRecordedOnce(t *testing.T) {
	n := presetNet(t, "kuiper").UseObs(obs.NewRegistry())
	s := n.At(0)
	s.frozen()
	m := n.metrics()
	kinds := []struct {
		name string
		k    *kindMetrics
		run  func(q int)
	}{
		{"sssp", &m.sssp, func(q int) {
			switch q % 3 {
			case 0:
				s.LatenciesWithin(NodeID(q), 5, nil)
			case 1:
				s.LatencyToAllNodesInto(NodeID(q), nil)
			default:
				s.LatencyToAllSatsInto(q%len(diffGrounds), nil)
			}
		}},
		{"path", &m.path, func(q int) { s.ShortestPath(n.GroundNode(q%len(diffGrounds)), n.SatNode(7*q+1)) }},
		// ISLShortest has no network at hand: it records on the process default.
		{"isl", &defaultMetrics().isl, func(q int) { s.ISLPath(q, 7*q+1) }},
	}
	const queries = 30
	for _, kd := range kinds {
		count, timed := kd.k.queries.Value(), kd.k.sec.Count()
		for q := 0; q < queries; q++ {
			kd.run(q)
		}
		if got := kd.k.queries.Value() - count; got != queries {
			t.Fatalf("%s queries counted = %d, want %d", kd.name, got, queries)
		}
		if got := kd.k.sec.Count() - timed; got != queries {
			t.Fatalf("%s query durations recorded = %d, want %d", kd.name, got, queries)
		}
	}
}
