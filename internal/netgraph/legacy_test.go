package netgraph

// The pre-freeze routing implementations, kept verbatim as the equivalence
// oracle: the differential tests pin the frozen-graph engine against these
// bit for bit (identical OneWayMs, identical tie-broken paths), and the
// benchmarks report the frozen speedup relative to them. They re-discover
// the graph per query — edgeIter runs an Observer.Visible scan per node
// expansion — which is exactly the cost the frozen CSR removes.

import (
	"container/heap"
	"math"

	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/units"
)

// edgeIter calls fn(neighbour, oneWayMs) for every edge leaving node id,
// enumerated in the order the frozen CSR rows reproduce: a satellite's +grid
// neighbours then ground stations ascending; a ground's satellites ascending.
func (s *Snapshot) edgeIter(id NodeID, fn func(NodeID, float64)) {
	sats := s.net.Sats()
	if s.net.IsSat(id) {
		sat := int(id)
		for _, nb := range s.net.Grid.Neighbors(sat) {
			fn(NodeID(nb), units.PropagationDelayMs(s.satPos[sat].Distance(s.satPos[nb])))
		}
		// Downlinks to every ground station that can see this satellite.
		for gi, g := range s.net.groundECEF {
			if s.net.Observer.Visible(g, sat, s.satPos[sat]) {
				fn(NodeID(sats+gi), units.PropagationDelayMs(g.Distance(s.satPos[sat])))
			}
		}
		return
	}
	gi := int(id) - sats
	g := s.net.groundECEF[gi]
	for satID, pos := range s.satPos {
		if s.net.Observer.Visible(g, satID, pos) {
			fn(NodeID(satID), units.PropagationDelayMs(g.Distance(pos)))
		}
	}
}

type pqItem struct {
	node NodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// legacyVisibleSats is the linear Observer scan VisibleSats ran per call.
func (s *Snapshot) legacyVisibleSats(gi int) []int {
	var out []int
	g := s.net.groundECEF[gi]
	for id, pos := range s.satPos {
		if s.net.Observer.Visible(g, id, pos) {
			out = append(out, id)
		}
	}
	return out
}

// legacyShortestPath is the closure-driven Dijkstra ShortestPath wrapped.
func (s *Snapshot) legacyShortestPath(src, dst NodeID) (Path, error) {
	nNodes := s.net.Nodes()
	if int(src) < 0 || int(src) >= nNodes || int(dst) < 0 || int(dst) >= nNodes {
		return Path{}, errOutOfRange(src, dst, nNodes)
	}
	if src == dst {
		return Path{Nodes: []NodeID{src}}, nil
	}
	dist := make([]float64, nNodes)
	prev := make([]NodeID, nNodes)
	done := make([]bool, nNodes)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &pq{{node: src}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		if it.node == dst {
			break
		}
		s.edgeIter(it.node, func(nb NodeID, w float64) {
			if done[nb] {
				return
			}
			if nd := it.dist + w; nd < dist[nb] {
				dist[nb] = nd
				prev[nb] = it.node
				heap.Push(q, pqItem{node: nb, dist: nd})
			}
		})
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, ErrNoPath
	}
	// Reconstruct.
	var rev []NodeID
	for at := dst; at != -1; at = prev[at] {
		rev = append(rev, at)
	}
	nodes := make([]NodeID, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return Path{Nodes: nodes, OneWayMs: dist[dst]}, nil
}

// legacyLatencyToAllSats is the per-call-allocating SSSP LatencyToAllSats
// wrapped.
func (s *Snapshot) legacyLatencyToAllSats(gi int) []float64 {
	nNodes := s.net.Nodes()
	dist := make([]float64, nNodes)
	done := make([]bool, nNodes)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	src := s.net.GroundNode(gi)
	dist[src] = 0
	q := &pq{{node: src}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		s.edgeIter(it.node, func(nb NodeID, w float64) {
			if done[nb] {
				return
			}
			if nd := it.dist + w; nd < dist[nb] {
				dist[nb] = nd
				heap.Push(q, pqItem{node: nb, dist: nd})
			}
		})
	}
	return dist[:s.net.Sats()]
}

// legacyISLShortest is the hand-rolled ISL-grid Dijkstra ISLShortest wrapped.
func legacyISLShortest(g *isl.Grid, satPos []geo.Vec3, a, b int) (Path, error) {
	sats := len(satPos)
	if a < 0 || a >= sats || b < 0 || b >= sats {
		return Path{}, errSatOutOfRange(a, b, sats)
	}
	if a == b {
		return Path{Nodes: []NodeID{NodeID(a)}}, nil
	}
	dist := make([]float64, sats)
	prev := make([]int, sats)
	done := make([]bool, sats)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[a] = 0
	q := &pq{{node: NodeID(a)}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := int(it.node)
		if done[u] {
			continue
		}
		done[u] = true
		if u == b {
			break
		}
		for _, nb := range g.Neighbors(u) {
			if done[nb] {
				continue
			}
			w := units.PropagationDelayMs(satPos[u].Distance(satPos[nb]))
			if nd := it.dist + w; nd < dist[nb] {
				dist[nb] = nd
				prev[nb] = u
				heap.Push(q, pqItem{node: NodeID(nb), dist: nd})
			}
		}
	}
	if math.IsInf(dist[b], 1) {
		return Path{}, ErrNoPath
	}
	var rev []NodeID
	for at := b; at != -1; at = prev[at] {
		rev = append(rev, NodeID(at))
	}
	nodes := make([]NodeID, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return Path{Nodes: nodes, OneWayMs: dist[b]}, nil
}
