package netgraph

// Parallel multi-source SSSP for the fan-out callers: meetup.BestRouted runs
// one source per user, fig3 one per user against every data centre. (The
// fleet hand-off planner prices each source satellite serially, with one
// radius-bounded LatenciesWithin row.) Sources share the frozen CSR
// (built once, before the workers start) and draw pooled query contexts, so
// the fan-out is embarrassingly parallel with deterministic per-slot output.
//
// Goroutines only help when there is enough work to amortise them: on a
// single-CPU host, or for a handful of sources over a small graph, the
// spawn/atomic/scheduler overhead is pure loss (the original always-spawn
// version clocked in *slower* than the caller's own serial loop). The
// fan-out therefore runs serially unless both spare parallelism and a
// minimum work volume (sources × nodes) are present. Either way the batch
// entry points beat the per-call loop: rows come from one slab allocation
// instead of one zeroed make per source.

import "repro/internal/par"

// serialFanoutWork is the sources×nodes volume below which the goroutine
// fan-out cannot recoup its setup cost and the batch runs serially. A node
// of a label-only row costs about a hundred nanoseconds (≈ 0.5 ms for a
// Starlink row); the fan-out machinery costs tens of microseconds in spawns,
// atomics, and cross-worker cache traffic.
const serialFanoutWork = 1 << 12

// AllSourcesLatencies runs LatencyToAllSatsInto for every ground station index
// in gis concurrently (up to par.Workers() workers) and returns the results in
// matching order: out[i][satID] is the one-way latency from gis[i]. Rows
// share one backing slab.
func (s *Snapshot) AllSourcesLatencies(gis []int) [][]float64 {
	if len(gis) == 0 {
		return nil
	}
	f := s.frozen()
	out := slabRows(len(gis), f.sats)
	s.forEachSource(len(gis), f.nodes, func(slot int) {
		s.LatencyToAllSatsInto(gis[slot], out[slot])
	})
	return out
}

// AllSourcesNodeLatencies runs LatencyToAllNodesInto for every source node
// concurrently: out[i][node] is the one-way latency from srcs[i] to node.
// Rows share one backing slab.
func (s *Snapshot) AllSourcesNodeLatencies(srcs []NodeID) [][]float64 {
	if len(srcs) == 0 {
		return nil
	}
	f := s.frozen()
	out := slabRows(len(srcs), f.nodes)
	s.forEachSource(len(srcs), f.nodes, func(slot int) {
		s.LatencyToAllNodesInto(srcs[slot], out[slot])
	})
	return out
}

// slabRows carves n rows of width w out of a single allocation. Rows are
// full-capacity slices, so the Into query paths fill them in place.
func slabRows(n, w int) [][]float64 {
	slab := make([]float64, n*w)
	out := make([][]float64, n)
	for i := range out {
		out[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// fanoutWorkers is the worker count forEachSource will use for a batch of n
// sources over a nodes-node graph: 1 means the serial fallback.
func fanoutWorkers(n, nodes int) int {
	if n*nodes < serialFanoutWork {
		return 1
	}
	return min(par.Workers(), n)
}

// forEachSource invokes run(0..n-1), fanning out over fanoutWorkers
// goroutines when parallelism exists and the batch is big enough to pay for
// it. The snapshot is frozen up front so workers never contend on the
// sync.Once.
func (s *Snapshot) forEachSource(n, nodes int, run func(int)) {
	s.frozen()
	// run cannot fail, so neither can Each.
	_ = par.Each(n, fanoutWorkers(n, nodes), func(i int) error {
		run(i)
		return nil
	})
}
