package netgraph

// The frozen-graph query core: every routing entry point — ShortestPath,
// LatencyToAllSatsInto, LatenciesWithin, ISLShortest and the parallel
// multi-source fan-outs — runs over flat CSR arrays with a pooled scratch
// context, and every search pops from one queue: the monotone bucket queue
// below, which popped sorted yields exact (key, node id) order, the order the
// pre-freeze oracle's heap defines (legacy_test.go).
//
// Three searches share it. D(v) is the least fixed point of D(v) = min over u
// of fl(D(u)+w(u,v)); "legacy order" is ascending (D(v), v), the pop order of
// dijkstra, the ordered search query_test.go keeps as the oracle. labels, the
// full rows, needs no order: weights are non-negative and rounding is
// monotone, so a search that re-pushes on every strict improvement until its
// queue is empty ends at D bit for bit in any expansion order — by induction
// along an optimal path each label is at most its left-fold partial sum, and
// every label is some path's sum. The other two read pop order:
// dijkstraWithin returns a nearest-first prefix, and astar, behind every
// point-to-point query, is one pass keyed by dist+π for an admissible π
// (losHeur below: straight-line delay to dst) whose stop rule and tie rule
// make its dist[dst] and prev chain from dst exactly dijkstra's, for any
// admissible π. Why astar's are, in the arithmetic it runs:
//
//   - Labels. Rounding is monotone, so astar's labels never drop below D. Let P
//     be dijkstra's path to dst. While dist[dst] > D(dst), the last node p of P
//     that carries its D label has not been expanded with it, and astar
//     re-pushes on every improvement, so p is queued with key fl(D(p)+π(p)) ≤
//     D(dst)·(1+hops·ulp): π(p) is at most the rest of P. astar stops only at
//     the first popped key > dist[dst]·(1+goalEps), so it cannot stop before
//     dist[dst] = D(dst), consistent π or not.
//   - Predecessors. dijkstra relaxes on strict improvement only, so prev[v] is
//     the tight predecessor (fl(D(u)+w) = D(v)) it pops first: the one with the
//     least (D(u), u) among those before v in legacy order. astar expands in key
//     order instead, so relaxAstar re-decides an exact tie by that rule: u
//     replaces p when (dist[u], u) < (dist[p], p) and (dist[u], u) < (dist[v], v).
//     A tight predecessor u of a node v on P has π(u) ≤ w(u,v) + (rest of P from
//     v), up to the rounding of π itself, hence key ≤ D(dst)·(1+hops·ulp) ≤ the
//     stop key: every one of them is expanded with its final label before the
//     stop, and the last offer standing is dijkstra's choice. dst itself is
//     never expanded — dijkstra returns on popping it.
//   - Bounds. A bounded run (ISLWithin) stops at the first popped key >
//     min(dist[dst], bound)·(1+goalEps). If D(dst) ≤ bound, p's key is under
//     both stop keys and the above holds unchanged. Otherwise dist[dst] ≥
//     D(dst) > bound if set, and the caller reports bound = min(D(dst), bound).
//
// goalEps is what "up to rounding" costs: a few ulps per hop in dist+π and in
// π, ≈ 1e-14 relative at a hundred hops, against 1e-12.

import (
	"math"
	"slices"
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

// queryCtx is the reusable search scratch: dist/prev arrays sized to the
// graph, validity tracked by a generation stamp so starting a new query is
// O(1) instead of an O(n) clear. A node's dist/prev entries — and, in a
// goal-directed run, its memoised heuristic pi — are meaningful only when
// stamp[v] == gen, except after labels, which stamps nothing.
type queryCtx struct {
	dist  []float64
	prev  []int32
	stamp []uint32
	pi    []float64 // astar only: π(v), evaluated when v is first reached
	gen   uint32
	q     bucketQueue
	ih    losHeur // the point-to-point queries' heuristic, kept here so it is not allocated

	// expanded counts node expansions by every search run on this context
	// since it was made; tests read deltas (TestGoalDirectedSettlesOnce).
	expanded uint64
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
		c.pi = make([]float64, n)
		c.q.slot = make([]int32, n)
	}
	c.dist = c.dist[:n]
	c.prev = c.prev[:n]
	c.stamp = c.stamp[:n]
	c.pi = c.pi[:n]
	c.next()
	return c
}

// next opens a fresh query generation on an already-sized context — the
// batched fan-outs call it between sources to skip the pool round-trip.
func (c *queryCtx) next() {
	c.q.reset()
	c.gen++
	if c.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(c.stamp[:cap(c.stamp)])
		c.gen = 1
	}
}

func putCtx(c *queryCtx) { ctxPool.Put(c) }

const (
	// qWidthMs is the bucket width. 1/4, 1/8 and 1/16 ms read within
	// run-to-run noise of each other on routing-sweep and the micro-benchmarks,
	// so the coarsest keeps the bucket array smallest.
	qWidthMs = 0.25
	// qBuckets caps the bucket array (4 KB) at 256 ms past the base key,
	// beyond any one-way LEO route; later keys share the last bucket.
	qBuckets = 1024
	// qSortMin is the bucket population above which opening a bucket calls
	// slices.SortFunc instead of sorting by insertion: the last bucket of a
	// graph with delays past the cap, or a width far above the key spread.
	qSortMin = 32
)

// qent is one queued (key, node) pair. Entries are never updated in place:
// an improvement pushes a fresh entry, and the superseded one is dropped —
// by supersede while its bucket is unopened, else by the search when it pops
// (its key no longer matches the node's label).
type qent struct {
	key  float64
	v    int32
	next int32 // bucket list link into bucketQueue.ents
}

func (a qent) before(b qent) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.v < b.v
}

// cmpQent is before as a slices.SortFunc comparator; queued (key, id) pairs
// are distinct, so it never needs to report equality.
func cmpQent(a, b qent) int {
	if a.before(b) {
		return -1
	}
	return 1
}

// bucketQueue is a Dial-style monotone priority queue over float keys that
// pops in exact (key, node id) order — the order a comparison heap with that
// tie-break produces. A key's bucket is ⌊(key − base)/qWidthMs⌋, clamped to
// the last one; buckets are unordered linked lists threaded through one slab
// until the scan reaches them, at which point a bucket is opened: moved into
// the sorted open array and popped from there. Truncation is monotone in the
// key, so every entry in a later bucket is larger than every entry at or
// below the open one, and an entry pushed at or below the open bucket is
// inserted into the open array in order. The bucket width therefore decides
// only how much sorting there is, never the pop sequence. Unsorted (labels),
// buckets still come in order and their entries as they were queued.
type bucketQueue struct {
	base float64
	ents []qent  // slab the bucket lists and the free list thread through
	head []int32 // head[b] indexes bucket b's newest entry in ents; -1 empty
	free int32   // slots of opened buckets, reused before the slab grows
	slot []int32 // slot[v]: v's newest entry in ents, if it was linked into a bucket
	open []qent  // open[pos:] is the remainder of buckets ≤ cur, in pop order
	pos  int
	cur  int // the open bucket; -1 before the first pop
	hi   int // highest bucket pushed to since the last reset
}

// reset empties the queue in O(buckets touched): buckets at or below cur
// were emptied when the scan passed them.
func (q *bucketQueue) reset() {
	if q.head == nil {
		q.head = make([]int32, qBuckets+1)
		q.cur, q.hi = -1, qBuckets // so that the loop below fills it
	}
	for b := q.cur + 1; b <= q.hi; b++ {
		q.head[b] = -1
	}
	q.base = 0
	q.ents, q.free = q.ents[:0], -1
	q.open, q.pos = q.open[:0], 0
	q.cur, q.hi = -1, -1
}

// push queues (key, v) for a search that pops sorted or not; an entry at or
// below the open bucket joins open directly, sunk into order if sorted.
func (q *bucketQueue) push(key float64, v int32, sorted bool) {
	b := qBuckets
	if f := (key - q.base) * (1 / qWidthMs); f < qBuckets {
		b = int(f)
	}
	if b <= q.cur {
		q.slot[v] = -1
		q.open = append(q.open, qent{key: key, v: v})
		if sorted {
			q.sink(len(q.open) - 1)
		}
		return
	}
	i := q.free
	if i >= 0 {
		q.free = q.ents[i].next
	} else {
		i = int32(len(q.ents))
		q.ents = append(q.ents, qent{})
	}
	q.ents[i] = qent{key, v, q.head[b]}
	q.head[b] = i
	q.slot[v] = i
	if b > q.hi {
		q.hi = b
	}
}

// supersede marks v's queued entry dead when it still sits in an unopened
// bucket, so that opening the bucket neither sorts nor pops it.
func (q *bucketQueue) supersede(v int32) {
	if i := q.slot[v]; i >= 0 && q.ents[i].v == v {
		q.ents[i].v = -1
	}
}

// sink moves open[i] down to its place among the sorted open[pos:i].
func (q *bucketQueue) sink(i int) {
	e := q.open[i]
	for ; i > q.pos && e.before(q.open[i-1]); i-- {
		q.open[i] = q.open[i-1]
	}
	q.open[i] = e
}

// pop removes and returns the smallest (key, id) entry, or when !sorted any
// entry of the lowest non-empty bucket; false when empty.
func (q *bucketQueue) pop(sorted bool) (qent, bool) {
	for q.pos == len(q.open) {
		if !q.openNext(sorted) {
			return qent{}, false
		}
	}
	e := q.open[q.pos]
	q.pos++
	return e, true
}

// openNext moves the next non-empty bucket into open, sorted if asked.
func (q *bucketQueue) openNext(sorted bool) bool {
	b := q.cur + 1
	for b <= q.hi && q.head[b] < 0 {
		b++
	}
	if b > q.hi {
		return false
	}
	q.cur = b
	q.open, q.pos = q.open[:0], 0
	for i := q.head[b]; ; {
		e := &q.ents[i]
		if e.v >= 0 {
			q.open = append(q.open, *e)
		}
		if i = e.next; i < 0 {
			e.next = q.free // the emptied bucket's slots go back to push
			break
		}
	}
	q.free, q.head[b] = q.head[b], -1
	if !sorted {
		return true
	}
	if n := len(q.open); n > qSortMin {
		slices.SortFunc(q.open, cmpQent)
	} else {
		for i := 1; i < n; i++ {
			q.sink(i)
		}
	}
	return true
}

// relax offers the candidate distance nd to v via predecessor u. Strict
// improvement only, matching the legacy relaxation: on an exact tie the
// first-seen predecessor keeps the node.
func (c *queryCtx) relax(u, v int32, nd float64) {
	if c.stamp[v] != c.gen {
		c.stamp[v] = c.gen
	} else if nd < c.dist[v] {
		c.q.supersede(v)
	} else {
		return
	}
	c.dist[v] = nd
	c.prev[v] = u
	c.q.push(nd, v, true)
}

// start labels src as the origin of a fresh search.
func (c *queryCtx) start(src int32) {
	c.stamp[src] = c.gen
	c.dist[src] = 0
	c.prev[src] = -1
}

// labels fills c.dist with the row from src, +Inf where unreachable and
// everywhere when src names no node. It needs no order (file header), so it
// pops unsorted, stamps nothing and keeps no predecessors: read c.dist, not
// distAt. With every edge wider than a bucket (every Starlink edge is) no pop
// improves a label in its own bucket, so each reachable node expands once;
// narrower edges cost re-expansions, not exactness. Explicit weights only.
func (c *queryCtx) labels(g csr, src int) {
	dist := c.dist
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	if src < 0 || src >= len(dist) {
		return
	}
	dist[src] = 0
	c.q.push(0, int32(src), false)
	for {
		e, ok := c.q.pop(false)
		if !ok {
			return
		}
		u, du := e.v, e.key
		if du != dist[u] {
			continue // superseded by a later, better push
		}
		c.expanded++
		for k, hi := g.off[u], g.off[u+1]; k < hi; k++ {
			if v, nd := g.adj[k], du+g.w[k]; nd < dist[v] {
				dist[v] = nd
				c.q.push(nd, v, false)
			}
		}
	}
}

// NodeMs is one node a radius-bounded SSSP settled and its one-way latency.
type NodeMs struct {
	Node NodeID
	Ms   float64
}

// dijkstraWithin is the ordered Dijkstra stopped at the first pop farther
// than maxMs, appending the nodes it settled to out in settle order: a prefix
// of the full ordered run, so distances are bit-identical to labels' row and
// every omitted node is farther than maxMs. It reads explicit weights only
// (frozen CSRs have them).
func (c *queryCtx) dijkstraWithin(g csr, src int32, maxMs float64, out []NodeMs) []NodeMs {
	c.start(src)
	c.q.push(0, src, true)
	for {
		e, ok := c.q.pop(true)
		if !ok || e.key > maxMs {
			return out
		}
		u, du := e.v, e.key
		if du != c.dist[u] {
			continue
		}
		c.expanded++
		out = append(out, NodeMs{NodeID(u), du})
		for k := g.off[u]; k < g.off[u+1]; k++ {
			c.relax(u, g.adj[k], du+g.w[k])
		}
	}
}

// heuristic is a lower bound on the remaining distance to a fixed query
// destination. astar evaluates it once per reached node.
type heuristic interface {
	eval(v int32) float64
}

// losHeur lower-bounds the remaining distance by the straight-line
// propagation delay to the destination: admissible on any graph whose edge
// weights are propagation delays (triangle inequality), ground nodes
// included. Node v sits at sats[v], or at grounds[v-len(sats)] past the
// satellites; the ISL-only graph has no grounds.
type losHeur struct {
	sats, grounds []geo.Vec3
	dst           geo.Vec3
}

// aim points h at node dst over the given node positions.
func (h *losHeur) aim(sats, grounds []geo.Vec3, dst int32) {
	*h = losHeur{sats: sats, grounds: grounds}
	h.dst = h.pos(dst)
}

func (h *losHeur) pos(v int32) geo.Vec3 {
	if int(v) < len(h.sats) {
		return h.sats[v]
	}
	return h.grounds[int(v)-len(h.sats)]
}

func (h *losHeur) eval(v int32) float64 {
	return units.PropagationDelayMs(h.pos(v).Distance(h.dst))
}

// goalEps widens astar's stop key past dist[dst]: it absorbs the rounding in
// dist+π along a path (≈ hops × 1.1e-16 relative) and in π itself, with
// four orders of magnitude to spare at any hop count a constellation has.
const goalEps = 1e-12

// astar runs best-first search from src keyed by dist+π and reports whether
// dst was reached; on true with c.dist[dst] ≤ bound, c.dist[dst] and the prev
// chain from dst are exactly what the ordered Dijkstra leaves (see the file
// header). Pass +Inf for an unbounded search.
func (c *queryCtx) astar(g csr, src, dst int32, h heuristic, bound float64) bool {
	c.start(src)
	c.pi[src] = h.eval(src)
	c.q.base = c.pi[src]
	c.q.push(c.pi[src], src, true)
	stop := bound * (1 + goalEps)
	for {
		e, ok := c.q.pop(true)
		if !ok || e.key > c.distAt(dst)*(1+goalEps) || e.key > stop {
			break
		}
		u := e.v
		du := c.dist[u]
		if u == dst || e.key != du+c.pi[u] {
			continue // dst is never expanded; a mismatched key is superseded
		}
		c.expanded++
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
	return c.stamp[dst] == c.gen
}

// relaxAstar is relax plus the two things a goal-directed run needs: a
// reached node's π is memoised, and an exact tie re-decides the predecessor
// by the canonical rule, because expansion order here is not label order.
func (c *queryCtx) relaxAstar(u, v int32, nd float64, h heuristic) {
	if c.stamp[v] != c.gen {
		c.stamp[v] = c.gen
		c.pi[v] = h.eval(v)
	} else if nd < c.dist[v] {
		c.q.supersede(v)
	} else {
		if p := c.prev[v]; nd == c.dist[v] && p >= 0 {
			du := c.dist[u]
			if (du < nd || du == nd && u < v) && (du < c.dist[p] || du == c.dist[p] && u < p) {
				c.prev[v] = u
			}
		}
		return
	}
	c.dist[v] = nd
	c.prev[v] = u
	c.q.push(nd+c.pi[v], v, true)
}

// distAt returns the computed distance of v, +Inf when unreached (not after labels).
func (c *queryCtx) distAt(v int32) float64 {
	if c.stamp[v] != c.gen {
		return math.Inf(1)
	}
	return c.dist[v]
}

// pathTo rebuilds the src→dst node sequence from the prev chain; call only
// after a search that reached dst.
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
