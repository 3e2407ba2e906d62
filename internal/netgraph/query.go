package netgraph

// The frozen-graph query core: one Dijkstra implementation shared by every
// routing entry point — ShortestPath, LatencyToAllSats, ISLShortest, and
// the parallel multi-source fan-outs — running over flat CSR arrays with a
// pooled, generation-stamped scratch context and an index-addressed 4-ary
// heap with decrease-key. The core is equivalence-pinned against the
// pre-freeze closure-driven Dijkstra (see legacy.go and the differential
// tests): identical latencies bit for bit, identical tie-broken paths.
//
// On top of the plain core sit two goal-directed variants used by the
// overlay (overlay.go) for long-haul point-to-point queries:
//
//   - astar: best-first search keyed by dist+π for an admissible heuristic
//     π, stopping at the first settle of dst. Its result is the length of a
//     real path, so it is an upper bound on the true distance (and equal to
//     it whenever π is consistent, the common case). It runs on a separate
//     lazy-deletion heap whose entries embed their keys, because its keys
//     are not the dist[] values the decrease-key heap orders by.
//   - dijkstraPruned: the exact legacy-order Dijkstra with one extra skip —
//     a relaxation whose candidate distance nd has nd+π(v) > bound cannot
//     lie on any path better than bound. With bound ≥ the true distance and
//     π admissible, every relaxation that determines the unpruned run's
//     reported path survives (each such node u lies on a shortest path, so
//     dist[u]+π(u) ≤ d* ≤ bound), so the pruned run's reported path and
//     length are bit-identical to the unpruned legacy order.

import (
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/units"
)

// csr is adjacency in compressed-sparse-row form. Edge k of node u
// (adj[off[u]:off[u+1]]) has weight w[k] when w is non-nil; otherwise the
// weight is derived on the fly from the node positions pos — the ISL-only
// case, where the topology is static but distances move with the snapshot.
type csr struct {
	off []int32
	adj []int32
	w   []float64
	pos []geo.Vec3
}

// queryCtx is the reusable Dijkstra scratch: dist/prev/heap arrays sized to
// the graph, validity tracked by a generation stamp so starting a new query
// is O(1) instead of an O(n) clear. A node's dist/prev/hpos entries are
// meaningful only when stamp[v] == gen. The pi arrays memoise heuristic
// evaluations for the goal-directed variants under their own generation, so
// a two-phase query (astar then dijkstraPruned against the same
// destination) evaluates π once per node across both phases.
type queryCtx struct {
	dist  []float64
	prev  []int32
	stamp []uint32
	hpos  []int32 // heap index of a queued node; -1 once popped
	heap  []int32 // 4-ary min-heap of node ids keyed by dist
	gen   uint32

	// A* scratch: lazy-deletion heap of (key, node) entries plus the
	// heuristic memo shared with the pruned pass.
	fheap   []hentry
	pi      []float64
	piStamp []uint32
	piGen   uint32
}

// hentry is one pending A* heap entry: a node and the key it was pushed
// with. Entries are never updated in place — an improvement pushes a fresh
// entry and the superseded one is discarded when popped (its key no longer
// matches the node's current dist+π).
type hentry struct {
	d float64
	v int32
}

var ctxPool = sync.Pool{New: func() any { return new(queryCtx) }}

// getCtx fetches a pooled context sized for n nodes and opens a fresh
// generation; pair with putCtx.
func getCtx(n int) *queryCtx {
	c := ctxPool.Get().(*queryCtx)
	if cap(c.dist) < n {
		c.dist = make([]float64, n)
		c.prev = make([]int32, n)
		c.stamp = make([]uint32, n)
		c.hpos = make([]int32, n)
		c.pi = make([]float64, n)
		c.piStamp = make([]uint32, n)
	}
	c.dist = c.dist[:n]
	c.prev = c.prev[:n]
	c.stamp = c.stamp[:n]
	c.hpos = c.hpos[:n]
	c.pi = c.pi[:n]
	c.piStamp = c.piStamp[:n]
	c.next()
	return c
}

// next opens a fresh query generation on an already-sized context — the
// batched fan-outs call it between sources to skip the pool round-trip.
func (c *queryCtx) next() {
	c.heap = c.heap[:0]
	c.gen++
	if c.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(c.stamp[:cap(c.stamp)])
		c.gen = 1
	}
}

func putCtx(c *queryCtx) { ctxPool.Put(c) }

// less orders heap entries by distance, ties broken on node id so pop order
// is deterministic.
func (c *queryCtx) less(a, b int32) bool {
	da, db := c.dist[a], c.dist[b]
	if da != db {
		return da < db
	}
	return a < b
}

func (c *queryCtx) push(v int32) {
	c.heap = append(c.heap, v)
	c.siftUp(len(c.heap) - 1)
}

func (c *queryCtx) siftUp(i int) {
	h := c.heap
	v := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !c.less(v, h[p]) {
			break
		}
		h[i] = h[p]
		c.hpos[h[p]] = int32(i)
		i = p
	}
	h[i] = v
	c.hpos[v] = int32(i)
}

func (c *queryCtx) siftDown(i int) {
	h := c.heap
	n := len(h)
	v := h[i]
	for {
		lo := i<<2 + 1
		if lo >= n {
			break
		}
		hi := lo + 4
		if hi > n {
			hi = n
		}
		m := lo
		for k := lo + 1; k < hi; k++ {
			if c.less(h[k], h[m]) {
				m = k
			}
		}
		if !c.less(h[m], v) {
			break
		}
		h[i] = h[m]
		c.hpos[h[m]] = int32(i)
		i = m
	}
	h[i] = v
	c.hpos[v] = int32(i)
}

func (c *queryCtx) popMin() int32 {
	h := c.heap
	v := h[0]
	last := len(h) - 1
	tail := h[last]
	c.heap = h[:last]
	if last > 0 {
		c.heap[0] = tail
		c.hpos[tail] = 0
		c.siftDown(0)
	}
	c.hpos[v] = -1
	return v
}

// relax offers the candidate distance nd to v via predecessor u. Strict
// improvement only, matching the legacy relaxation: on an exact tie the
// first-seen predecessor keeps the node.
func (c *queryCtx) relax(u, v int32, nd float64) {
	if c.stamp[v] != c.gen {
		c.stamp[v] = c.gen
		c.dist[v] = nd
		c.prev[v] = u
		c.push(v)
		return
	}
	if nd < c.dist[v] {
		// Non-negative weights mean a settled node can never improve, so a
		// successful decrease always finds v still queued (hpos >= 0).
		c.dist[v] = nd
		c.prev[v] = u
		c.siftUp(int(c.hpos[v]))
	}
}

// dijkstra runs from src until dst is settled (dst >= 0) or the reachable
// graph is exhausted (dst < 0: full single-source shortest paths). Results
// live in c.dist/c.prev for nodes stamped with the current generation.
func (c *queryCtx) dijkstra(g csr, src, dst int32) {
	c.stamp[src] = c.gen
	c.dist[src] = 0
	c.prev[src] = -1
	c.push(src)
	for len(c.heap) > 0 {
		u := c.popMin()
		if u == dst {
			return
		}
		du := c.dist[u]
		lo, hi := g.off[u], g.off[u+1]
		if g.w != nil {
			for k := lo; k < hi; k++ {
				c.relax(u, g.adj[k], du+g.w[k])
			}
		} else {
			pu := g.pos[u]
			for k := lo; k < hi; k++ {
				v := g.adj[k]
				c.relax(u, v, du+units.PropagationDelayMs(pu.Distance(g.pos[v])))
			}
		}
	}
}

// NodeMs is one node a radius-bounded SSSP settled and its one-way latency.
type NodeMs struct {
	Node NodeID
	Ms   float64
}

// dijkstraWithin is the full-SSSP dijkstra stopped at the first pop farther
// than maxMs, appending the nodes it settled to out in settle order: a prefix
// of the unbounded run, so distances are bit-identical and every omitted node
// is farther than maxMs. It is its own loop so that dijkstra carries no
// per-pop radius test, and reads explicit weights only (frozen CSRs have them).
func (c *queryCtx) dijkstraWithin(g csr, src int32, maxMs float64, out []NodeMs) []NodeMs {
	c.stamp[src] = c.gen
	c.dist[src] = 0
	c.prev[src] = -1
	c.push(src)
	for len(c.heap) > 0 {
		u := c.popMin()
		du := c.dist[u]
		if du > maxMs {
			break
		}
		out = append(out, NodeMs{NodeID(u), du})
		for k := g.off[u]; k < g.off[u+1]; k++ {
			c.relax(u, g.adj[k], du+g.w[k])
		}
	}
	return out
}

// heuristic is a lower bound on the remaining distance to a fixed query
// destination; evaluations are memoised per node in the context's pi cache.
type heuristic interface {
	eval(v int32) float64
}

// beginHeur opens a fresh heuristic-memo generation (one per two-phase
// query: astar and the following dijkstraPruned share the cache).
func (c *queryCtx) beginHeur() {
	c.piGen++
	if c.piGen == 0 {
		clear(c.piStamp[:cap(c.piStamp)])
		c.piGen = 1
	}
}

func (c *queryCtx) hval(v int32, h heuristic) float64 {
	if c.piStamp[v] != c.piGen {
		c.pi[v] = h.eval(v)
		c.piStamp[v] = c.piGen
	}
	return c.pi[v]
}

func (a hentry) fless(b hentry) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.v < b.v
}

func (c *queryCtx) pushF(e hentry) {
	h := append(c.fheap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.fless(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	c.fheap = h
}

func (c *queryCtx) popF() hentry {
	h := c.fheap
	e := h[0]
	last := len(h) - 1
	tail := h[last]
	h = h[:last]
	i := 0
	for last > 0 {
		lo := i<<2 + 1
		if lo >= last {
			break
		}
		hi := lo + 4
		if hi > last {
			hi = last
		}
		m := lo
		for k := lo + 1; k < hi; k++ {
			if h[k].fless(h[m]) {
				m = k
			}
		}
		if !h[m].fless(tail) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if last > 0 {
		h[i] = tail
	}
	c.fheap = h
	return e
}

// astar runs best-first search from src keyed by dist+π and returns the
// distance label of dst at its first settle, or +Inf when dst is
// unreachable. With π admissible the label is the length of a real path —
// an upper bound on the true distance, exact when π is also consistent.
// Improvements re-push (lazy deletion), so a slightly inconsistent π (e.g.
// floating-point rounding at the ulp level) still terminates and still
// returns a genuine path length. dist/prev are left populated for the
// explored region but callers must not treat them as settled shortest
// paths; the exact answer comes from the dijkstraPruned pass that follows.
func (c *queryCtx) astar(g csr, src, dst int32, h heuristic) float64 {
	c.fheap = c.fheap[:0]
	c.stamp[src] = c.gen
	c.dist[src] = 0
	c.prev[src] = -1
	c.pushF(hentry{c.hval(src, h), src})
	for len(c.fheap) > 0 {
		e := c.popF()
		u := e.v
		if e.d != c.dist[u]+c.hval(u, h) {
			continue // stale: superseded by a later, better push
		}
		if u == dst {
			return c.dist[u]
		}
		du := c.dist[u]
		lo, hi := g.off[u], g.off[u+1]
		if g.w != nil {
			for k := lo; k < hi; k++ {
				c.relaxAstar(u, g.adj[k], du+g.w[k], h)
			}
		} else {
			pu := g.pos[u]
			for k := lo; k < hi; k++ {
				v := g.adj[k]
				c.relaxAstar(u, v, du+units.PropagationDelayMs(pu.Distance(g.pos[v])), h)
			}
		}
	}
	return math.Inf(1)
}

func (c *queryCtx) relaxAstar(u, v int32, nd float64, h heuristic) {
	if c.stamp[v] != c.gen {
		c.stamp[v] = c.gen
		c.dist[v] = nd
		c.prev[v] = u
		c.pushF(hentry{nd + c.hval(v, h), v})
		return
	}
	if nd < c.dist[v] {
		c.dist[v] = nd
		c.prev[v] = u
		c.pushF(hentry{nd + c.hval(v, h), v})
	}
}

// dijkstraPruned is dijkstra with goal-directed pruning: a relaxation is
// skipped when its candidate distance plus the heuristic's lower bound on
// the remaining leg already exceeds bound. See the package comment above
// for why the reported path stays bit-identical.
func (c *queryCtx) dijkstraPruned(g csr, src, dst int32, h heuristic, bound float64) {
	c.stamp[src] = c.gen
	c.dist[src] = 0
	c.prev[src] = -1
	c.push(src)
	for len(c.heap) > 0 {
		u := c.popMin()
		if u == dst {
			return
		}
		du := c.dist[u]
		lo, hi := g.off[u], g.off[u+1]
		if g.w != nil {
			for k := lo; k < hi; k++ {
				v := g.adj[k]
				nd := du + g.w[k]
				if nd+c.hval(v, h) > bound {
					continue
				}
				c.relax(u, v, nd)
			}
		} else {
			pu := g.pos[u]
			for k := lo; k < hi; k++ {
				v := g.adj[k]
				nd := du + units.PropagationDelayMs(pu.Distance(g.pos[v]))
				if nd+c.hval(v, h) > bound {
					continue
				}
				c.relax(u, v, nd)
			}
		}
	}
}

// distAt returns the computed distance of v, +Inf when unreached.
func (c *queryCtx) distAt(v int32) float64 {
	if c.stamp[v] != c.gen {
		return math.Inf(1)
	}
	return c.dist[v]
}

// pathTo rebuilds the src→dst node sequence from the prev chain; call only
// after dijkstra settled dst.
func (c *queryCtx) pathTo(dst int32) []NodeID {
	n := 0
	for at := dst; at != -1; at = c.prev[at] {
		n++
	}
	nodes := make([]NodeID, n)
	for at := dst; at != -1; at = c.prev[at] {
		n--
		nodes[n] = NodeID(at)
	}
	return nodes
}
