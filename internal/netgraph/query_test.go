package netgraph

// Tests for the properties the query core rests on: the bucket queue pops in
// exact (key, id) order at any width when sorted, and bucket by bucket when
// not; labels equals the ordered dijkstra bit for bit and expands each node
// once; and astar reports dijkstra's distance and node sequence even where
// exact ties are the norm.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cities"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/units"
)

// dijkstra is the ordered search, the oracle labels, dijkstraWithin and astar
// are pinned against: it pops in legacy order, ascending (dist, id), and runs
// from src until dst is settled (dst >= 0) or the reachable graph is
// exhausted (dst < 0). Results live in c.dist/c.prev for nodes stamped with
// the current generation; a nil g.w derives weights from g.pos.
func (c *queryCtx) dijkstra(g csr, src, dst int32) {
	c.start(src)
	c.q.push(0, src, true)
	for {
		e, ok := c.q.pop(true)
		if !ok {
			return
		}
		u, du := e.v, e.key
		if du != c.dist[u] {
			continue // superseded by a later, better push
		}
		if u == dst {
			return
		}
		c.expanded++
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

// oracleRow is dijkstra as a labels stand-in: the full row from src, dense in
// c.dist.
func oracleRow(c *queryCtx, g csr, src int) {
	c.dijkstra(g, int32(src), -1)
	for v := range c.dist {
		c.dist[v] = c.distAt(int32(v))
	}
}

// TestBucketQueueOrder drives the queue directly against a sorted reference:
// every sorted pop must be the reference's minimum by (key, id), whatever the
// key spread is relative to the bucket width, and a reset after a partial
// drain must leave nothing behind. The unsorted case adds keys the way a
// search does — none below the last key popped — and must pop the same
// multiset with bucket indices that never decrease.
func TestBucketQueueOrder(t *testing.T) {
	span := qWidthMs * qBuckets
	cases := []struct {
		name string
		base float64
		key  func(rng *rand.Rand) float64
	}{
		{"duplicates", 0, func(rng *rand.Rand) float64 { return float64(rng.Intn(4)) }},
		{"width-much-larger-than-spread", 0, func(rng *rand.Rand) float64 { return rng.Float64() * qWidthMs / 64 }},
		{"width-much-smaller-than-spread", 0, func(rng *rand.Rand) float64 { return rng.Float64() * span / 2 }},
		{"past-the-cap", 0, func(rng *rand.Rand) float64 { return span * (0.9 + rng.Float64()) }},
		{"below-the-open-bucket", 0, func(rng *rand.Rand) float64 { return 40 * rng.Float64() }},
		{"below-the-base", 7, func(rng *rand.Rand) float64 { return 10 * rng.Float64() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			var q bucketQueue
			q.slot = make([]int32, 1<<12)
			for round := 0; round < 20; round++ {
				q.reset()
				q.base = tc.base
				var ref []qent
				id := int32(0)
				push := func() {
					e := qent{key: tc.key(rng), v: id}
					id++
					q.push(e.key, e.v, true)
					ref = append(ref, e)
				}
				for i := rng.Intn(200); i >= 0; i-- {
					push()
				}
				// Interleave pops with pushes drawn from the same range, so
				// many land at or under the open bucket — which a search does
				// only by ulps, and the queue must order all the same.
				for step := 0; step < 300 && len(ref) > 0; step++ {
					if rng.Intn(3) == 0 {
						push()
						continue
					}
					slices.SortFunc(ref, cmpQent)
					got, ok := q.pop(true)
					if !ok {
						t.Fatalf("round %d step %d: queue empty with %d entries outstanding", round, step, len(ref))
					}
					if got.key != ref[0].key || got.v != ref[0].v {
						t.Fatalf("round %d step %d: popped (%v, %d), want (%v, %d)", round, step, got.key, got.v, ref[0].key, ref[0].v)
					}
					ref = ref[1:]
				}
				if round%2 == 0 { // drain fully on even rounds, abandon the rest on odd ones
					for range ref {
						if _, ok := q.pop(true); !ok {
							t.Fatalf("round %d: queue ran dry early", round)
						}
					}
					if e, ok := q.pop(true); ok {
						t.Fatalf("round %d: drained queue still popped (%v, %d)", round, e.key, e.v)
					}
				}
			}
			checkReset(t, &q)
		})
		t.Run("unsorted/"+tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			var q bucketQueue
			q.slot = make([]int32, 1<<12)
			bucket := func(key float64) int {
				if f := (key - q.base) * (1 / qWidthMs); f < qBuckets {
					return int(f)
				}
				return qBuckets
			}
			for round := 0; round < 20; round++ {
				q.reset()
				q.base = tc.base
				var added, popped []qent
				floor := tc.base
				add := func() {
					e := qent{key: max(tc.key(rng), floor), v: int32(len(added))}
					q.push(e.key, e.v, false)
					added = append(added, e)
				}
				pop := func() bool {
					e, ok := q.pop(false)
					if !ok {
						return false
					}
					if n := len(popped); n > 0 && bucket(e.key) < bucket(popped[n-1].key) {
						t.Fatalf("round %d: popped key %v (bucket %d) after %v (bucket %d)",
							round, e.key, bucket(e.key), popped[n-1].key, bucket(popped[n-1].key))
					}
					popped = append(popped, qent{key: e.key, v: e.v})
					floor = e.key
					return true
				}
				for i := rng.Intn(200); i >= 0; i-- {
					add()
				}
				for step := 0; step < 300 && len(popped) < len(added); step++ {
					if rng.Intn(3) == 0 {
						add()
					} else if !pop() {
						t.Fatalf("round %d step %d: queue empty with %d entries outstanding", round, step, len(added)-len(popped))
					}
				}
				if round%2 == 1 { // abandon the rest on odd rounds
					continue
				}
				for pop() {
				}
				slices.SortFunc(added, cmpQent)
				slices.SortFunc(popped, cmpQent)
				if !slices.Equal(added, popped) {
					t.Fatalf("round %d: popped %d entries, not the %d added", round, len(popped), len(added))
				}
			}
			checkReset(t, &q)
		})
	}
}

// checkReset resets q and checks that nothing is left to pop.
func checkReset(t *testing.T, q *bucketQueue) {
	t.Helper()
	q.reset()
	if e, ok := q.pop(true); ok {
		t.Fatalf("reset queue popped (%v, %d)", e.key, e.v)
	}
	for b, h := range q.head {
		if h != -1 {
			t.Fatalf("reset left bucket %d non-empty", b)
		}
	}
}

// TestBucketQueueSupersede: an entry superseded while it waits in a bucket
// is never popped; one superseded after its bucket opened still is (the
// searches discard it by its stale key).
func TestBucketQueueSupersede(t *testing.T) {
	var q bucketQueue
	q.slot = make([]int32, 8)
	q.reset()
	q.push(5, 1, true)
	q.push(5.01, 2, true)
	q.push(9, 3, true)
	q.supersede(3)
	q.push(8, 3, true)
	if e, _ := q.pop(true); e.v != 1 {
		t.Fatalf("first pop = %d, want 1", e.v)
	}
	q.supersede(2) // bucket already open: stays
	q.push(5.001, 2, true)
	var got []int32
	for e, ok := q.pop(true); ok; e, ok = q.pop(true) {
		got = append(got, e.v)
	}
	if want := []int32{2, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("pops = %v, want %v", got, want)
	}
}

// TestLabelsSettleOnce is the count gate on label-only rows. Every Starlink
// edge is wider than a bucket, so no pop improves a label in its own bucket
// and labels expands each reachable node exactly once, stamping nothing; a
// second pass, an edge below the width or stamps coming back fail it on any
// host. On a three-node graph with one sub-width edge, the unsorted bucket
// expands a node twice where a sorted one would not, so a sort coming back
// fails it too.
func TestLabelsSettleOnce(t *testing.T) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := New(c, cities.Locations(cities.TopN(200)))
	s := n.At(0)
	f := s.frozen()
	if w := slices.Min(f.g.w); w <= qWidthMs {
		t.Fatalf("lightest edge %v ms is not wider than a bucket (%v ms)", w, qWidthMs)
	}
	ctx := getCtx(f.nodes)
	defer putCtx(ctx)
	for gi := range n.Grounds {
		ctx.next()
		before := ctx.expanded
		ctx.labels(f.g, int(n.GroundNode(gi)))
		reached := 0
		for _, d := range ctx.dist {
			if !math.IsInf(d, 1) {
				reached++
			}
		}
		if got := ctx.expanded - before; got != uint64(reached) {
			t.Fatalf("ground %d: %d expansions for %d reachable nodes", gi, got, reached)
		}
		if slices.Contains(ctx.stamp, ctx.gen) {
			t.Fatalf("ground %d: labels stamped nodes", gi)
		}
		if row := s.LatencyToAllSats(gi); !slices.Equal(row, ctx.dist[:f.sats]) {
			t.Fatalf("ground %d: LatencyToAllSats differs from labels", gi)
		}
	}

	// 0→1 (1.01 ms) and 0→2 (1.2 ms) share a bucket and 2 is linked last, so
	// unsorted it pops first, and 1→2 (0.001 ms) then improves it: four
	// expansions, where (key, id) order takes three.
	g := csr{off: []int32{0, 2, 3, 3}, adj: []int32{1, 2, 2}, w: []float64{1.01, 1.2, 0.001}}
	small := getCtx(3)
	defer putCtx(small)
	before := small.expanded
	small.labels(g, 0)
	if got := small.expanded - before; got != 4 || small.dist[2] != 1.01+0.001 {
		t.Fatalf("three-node graph: %d expansions, dist %v; want 4 and dist[2] = %v", got, small.dist, 1.01+0.001)
	}
}

// FuzzLabelsMatchDijkstra: on random CSR graphs — zero and sub-width
// weights, exact ties, keys past the 256 ms bucket cap, isolated nodes —
// labels equals the ordered dijkstra in Float64bits on every node, and is
// +Inf exactly where a breadth-first walk does not reach.
func FuzzLabelsMatchDijkstra(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3))
	f.Add(int64(2), uint8(200), uint8(6))
	f.Add(int64(3), uint8(7), uint8(1))
	f.Add(int64(4), uint8(120), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nodes, degree uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nodes)
		weight := func() float64 {
			switch rng.Intn(5) {
			case 0:
				return 0
			case 1:
				return rng.Float64() * qWidthMs // sub-width
			case 2:
				return float64(rng.Intn(8)) * qWidthMs / 2 // exact ties
			case 3:
				return 100 + 200*rng.Float64() // keys past the cap
			default:
				return 10 * rng.Float64()
			}
		}
		// Every eighth node has no edges in or out.
		isolated := func(v int) bool { return v%8 == 7 }
		g := csr{off: make([]int32, n+1), w: []float64{}} // non-nil: the oracle reads w
		for u := 0; u < n; u++ {
			for d := rng.Intn(1 + int(degree)%8); d > 0 && !isolated(u); d-- {
				if v := rng.Intn(n); !isolated(v) {
					g.adj = append(g.adj, int32(v))
					g.w = append(g.w, weight())
				}
			}
			g.off[u+1] = int32(len(g.adj))
		}
		src := rng.Intn(n)

		c := getCtx(n)
		defer putCtx(c)
		c.labels(g, src)
		got := slices.Clone(c.dist)
		c.next()
		oracleRow(c, g, src)
		reach := make([]bool, n)
		reach[src] = true
		for stack := []int32{int32(src)}; len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.adj[g.off[u]:g.off[u+1]] {
				if !reach[v] {
					reach[v] = true
					stack = append(stack, v)
				}
			}
		}
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(c.dist[v]) {
				t.Fatalf("node %d: labels %v, dijkstra %v", v, got[v], c.dist[v])
			}
			if math.IsInf(got[v], 1) == reach[v] {
				t.Fatalf("node %d: labels %v, reachable %v", v, got[v], reach[v])
			}
		}
	})
}

// gridHeur is the Manhattan distance to dst on a side×side grid, scaled:
// consistent for any scale ≤ 1 when weights are ≥ 1, and exactly tight at
// scale 1 with unit weights.
type gridHeur struct {
	side, dst int32
	scale     float64
}

func (h gridHeur) eval(v int32) float64 {
	dr, dc := v/h.side-h.dst/h.side, v%h.side-h.dst%h.side
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return h.scale * float64(dr+dc)
}

// tieGrid builds a side×side 4-connected grid CSR with shuffled adjacency
// rows and symmetric integer weights: all 1, or drawn from {1, 2}.
func tieGrid(rng *rand.Rand, side int, unit bool) csr {
	n := side * side
	wt := make(map[[2]int]float64)
	rows := make([][]int32, n)
	link := func(a, b int) {
		w := 1.0
		if !unit {
			w = float64(1 + rng.Intn(2))
		}
		wt[[2]int{a, b}], wt[[2]int{b, a}] = w, w
		rows[a] = append(rows[a], int32(b))
		rows[b] = append(rows[b], int32(a))
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				link(r*side+c, r*side+c+1)
			}
			if r+1 < side {
				link(r*side+c, (r+1)*side+c)
			}
		}
	}
	g := csr{off: make([]int32, n+1)}
	for u, row := range rows {
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		for _, v := range row {
			g.adj = append(g.adj, v)
			g.w = append(g.w, wt[[2]int{u, int(v)}])
		}
		g.off[u+1] = int32(len(g.adj))
	}
	return g
}

// TestGoalDirectedTieTorture pins the property the deleted second pass paid
// for: where equal-length paths abound, astar still reports the path
// dijkstra's (dist, id) pop order picks. Exact float ties do not occur on
// the constellation presets, so the preset differentials cannot see this.
func TestGoalDirectedTieTorture(t *testing.T) {
	const side = 24
	rng := rand.New(rand.NewSource(17))
	type trial struct {
		g     csr
		scale float64
	}
	var trials []trial
	for _, scale := range []float64{0, 0.5, 1} {
		for k := 0; k < 3; k++ {
			trials = append(trials, trial{tieGrid(rng, side, k == 0), scale})
		}
	}
	for i := 0; i < 300; i++ {
		tr := trials[i%len(trials)]
		src, dst := rng.Intn(side*side), rng.Intn(side*side)
		if src == dst {
			continue
		}
		want, _ := rawISL(tr.g, src, dst)
		c := getCtx(side * side)
		if !c.astar(tr.g, int32(src), int32(dst), gridHeur{side, int32(dst), tr.scale}) {
			t.Fatalf("pair %d (%d→%d): astar found no path", i, src, dst)
		}
		got := Path{Nodes: c.pathTo(int32(dst)), OneWayMs: c.dist[dst]}
		putCtx(c)
		if !samePath(got, want) {
			t.Fatalf("pair %d (%d→%d, heuristic ×%v): astar %v (%v) != dijkstra %v (%v)",
				i, src, dst, tr.scale, got.Nodes, got.OneWayMs, want.Nodes, want.OneWayMs)
		}
	}
}

// settleOnceMean is the mean number of nodes one-pass astar expands per
// ShortestPath on TestGoalDirectedSettlesOnce's pairs, as measured when the
// second pass was deleted (the two-pass design read 2× this).
const settleOnceMean = 233.0

// TestGoalDirectedSettlesOnce is the count gate on the one-pass design: a
// reintroduced second search over the same node set doubles the mean and
// fails it, on any host, at any load.
func TestGoalDirectedSettlesOnce(t *testing.T) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	grounds := cities.Locations(cities.TopN(200))
	n := New(c, grounds)
	s := n.At(0)
	var covered []int
	for i, g := range grounds {
		if math.Abs(g.LatDeg) <= 50 {
			covered = append(covered, i)
		}
	}
	// ShortestPath's context goes back to the pool; fetching it again reads
	// what the query added to its counter. A pool miss (the goroutine moved
	// to another P, or -race dropped the Put) hands back a different context
	// and that sample is skipped.
	rng := rand.New(rand.NewSource(17))
	var last *queryCtx
	var before, expanded uint64
	counted := 0
	for i := 0; i < 200; i++ {
		a := covered[rng.Intn(len(covered))]
		b := covered[rng.Intn(len(covered))]
		if a == b {
			continue
		}
		if _, err := s.ShortestPath(n.GroundNode(a), n.GroundNode(b)); err != nil {
			t.Fatalf("pair %d (%d→%d): %v", i, a, b, err)
		}
		ctx := getCtx(n.Nodes())
		if ctx == last {
			expanded += ctx.expanded - before
			counted++
		}
		last, before = ctx, ctx.expanded
		putCtx(ctx)
	}
	if counted < 50 {
		t.Fatalf("only %d of 200 queries landed on a context the test could read", counted)
	}
	mean := float64(expanded) / float64(counted)
	t.Logf("mean nodes expanded per ShortestPath: %.1f (one-pass reference %.0f)", mean, settleOnceMean)
	if mean > 1.35*settleOnceMean {
		t.Fatalf("mean nodes expanded per ShortestPath = %.1f, want ≤ 1.35 × %.0f: is a second pass back?", mean, settleOnceMean)
	}
	if mean < settleOnceMean/1.35 {
		t.Fatalf("mean nodes expanded per ShortestPath = %.1f, far below the reference %.0f: re-measure settleOnceMean", mean, settleOnceMean)
	}
}

// FuzzGoalDirectedMatchesDijkstra: on a random Walker shell with a random
// ground set, instant and endpoints, ShortestPath and ISLPath — both
// goal-directed, with ALT tables on the larger shells — equal the plain
// dijkstra over the same frozen CSR in OneWayMs bits and node sequence.
func FuzzGoalDirectedMatchesDijkstra(f *testing.F) {
	f.Add(uint8(6), uint8(7), 53.0, 550.0, uint8(1), int64(1), 100.0)
	f.Add(uint8(24), uint8(22), 53.0, 550.0, uint8(5), int64(2), 4000.0) // ALT tables
	f.Add(uint8(3), uint8(3), 98.0, 1400.0, uint8(0), int64(3), 0.0)
	f.Add(uint8(12), uint8(40), 70.0, 1200.0, uint8(11), int64(4), 86400.0)
	f.Fuzz(func(t *testing.T, planes, per uint8, inclDeg, altKm float64, phase uint8, seed int64, tSec float64) {
		for _, x := range []float64{inclDeg, altKm, tSec} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip()
			}
		}
		sh := constellation.Shell{
			Name:            "fuzz",
			Planes:          3 + int(planes)%26,
			SatsPerPlane:    3 + int(per)%38,
			InclinationDeg:  30 + math.Mod(math.Abs(inclDeg), 70),
			AltitudeKm:      400 + math.Mod(math.Abs(altKm), 1200),
			MinElevationDeg: 10,
		}
		sh.PhaseFactor = int(phase) % sh.Planes
		c, err := constellation.Build("fuzz", []constellation.Shell{sh}, constellation.Config{})
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		grounds := make([]geo.LatLon, 2+rng.Intn(9))
		for i := range grounds {
			grounds[i] = geo.LatLon{LatDeg: 160*rng.Float64() - 80, LonDeg: 360*rng.Float64() - 180}
		}
		n := New(c, grounds)
		// The overlay and ISL CSR caches key on the grid and never evict.
		defer overlayCache.Delete(n.Grid)
		defer islCSRCache.Delete(n.Grid)
		s := n.At(math.Mod(math.Abs(tSec), 2*86400))
		fz := s.frozen()
		ic := islGraph(n.Grid, n.Sats())
		isl := csr{off: ic.off, adj: ic.adj, pos: s.satPos}
		for q := 0; q < 6; q++ {
			a, b := rng.Intn(n.Nodes()), rng.Intn(n.Nodes())
			want, ok := rawISL(fz.g, a, b)
			got, err := s.ShortestPath(NodeID(a), NodeID(b))
			if a != b && (ok != (err == nil) || ok && !samePath(got, want)) {
				t.Fatalf("ShortestPath(%d, %d): %v (%v) err %v, dijkstra %v (%v) ok %v",
					a, b, got.Nodes, got.OneWayMs, err, want.Nodes, want.OneWayMs, ok)
			}
			a, b = rng.Intn(n.Sats()), rng.Intn(n.Sats())
			want, ok = rawISL(isl, a, b)
			got, err = s.ISLPath(a, b)
			if a != b && (ok != (err == nil) || ok && !samePath(got, want)) {
				t.Fatalf("ISLPath(%d, %d): %v (%v) err %v, dijkstra %v (%v) ok %v",
					a, b, got.Nodes, got.OneWayMs, err, want.Nodes, want.OneWayMs, ok)
			}
		}
	})
}
