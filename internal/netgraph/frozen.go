package netgraph

// Freezing a snapshot turns the time-varying topology into flat CSR arrays
// once, so every subsequent query is tight loops over int32/float64 slices
// instead of closure-driven visibility rescans:
//
//   - ISL edges come from the static +grid with weights evaluated at the
//     snapshot's satellite positions;
//   - ground↔satellite edges are discovered by one visibility scan per
//     ground station — the scan the pre-freeze oracle's edgeIter
//     (legacy_test.go) repeats on every node expansion — with each uplink weight computed once and shared bitwise
//     with the matching downlink (Vec3.Distance is exactly symmetric).
//
// Row layout reproduces the legacy edge-iteration order exactly, which pins
// tie-breaking: a satellite's row is its +grid neighbours (grid order)
// followed by visible ground stations ascending; a ground row is its
// visible satellites ascending.
//
// The visibility scan comes in two forms that produce the same rows bit for
// bit. buildFrozen tests every (ground, satellite) pair; indexFrozen buckets
// the snapshot into a visibility.Index once and tests, per ground, only the
// satellites inside that ground's cell boxes — static per Network, since
// grounds are Earth-fixed. The index serves the ground sets big enough to
// repay the bucketing pass; every input it does not cover (an elevated
// ground, mixed thresholds inside a shell, a satellite below its shell's
// lowest orbit) degrades to the full scan, never to a stale visible set.

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/units"
	"repro/internal/visibility"
)

// ErrGraphTooLarge is the panic value raised when a frozen snapshot's edge
// count would overflow the int32 CSR offsets (mega-constellation configs).
type ErrGraphTooLarge struct {
	Edges int64
}

func (e *ErrGraphTooLarge) Error() string {
	return fmt.Sprintf("netgraph: frozen graph has %d directed edges; CSR offsets are int32 (max %d)", e.Edges, int32(math.MaxInt32))
}

// frozen is the per-snapshot CSR adjacency shared by all queries.
type frozen struct {
	sats  int
	nodes int
	g     csr
	// satPos/groundPos reference (not copy) the node positions — satellite
	// rows first, ground rows after — for goal-directed query heuristics.
	satPos    []geo.Vec3
	groundPos []geo.Vec3
}

// pos returns the position of a node (satellite or ground).
func (f *frozen) pos(node int32) geo.Vec3 {
	if int(node) < f.sats {
		return f.satPos[node]
	}
	return f.groundPos[int(node)-f.sats]
}

// frozen returns the snapshot's CSR, building it on first use. Safe for
// concurrent callers; the build runs at most once per snapshot.
func (s *Snapshot) frozen() *frozen {
	s.frzOnce.Do(func() {
		m := s.net.metrics()
		start := time.Now()
		var sp spanEnder
		if tr := tracer(); tr != nil {
			sp = tr.Start("netgraph.freeze")
		}
		if fp := s.net.footprint(); fp != nil {
			s.frz = indexFrozen(s, fp)
		}
		if s.frz == nil {
			s.frz = buildFrozen(s)
		}
		if sp != nil {
			sp.End()
		}
		m.freezes.Inc()
		m.freezeSec.Observe(time.Since(start).Seconds())
		m.frozenEdges.Set(float64(len(s.frz.g.adj)))
		totalFreezes.Add(1)
		totalFrozenEdges.Add(uint64(len(s.frz.g.adj)))
	})
	return s.frz
}

// spanEnder is the slice of obs.Span the freeze path needs.
type spanEnder interface{ End() float64 }

func buildFrozen(s *Snapshot) *frozen {
	net := s.net
	grounds := net.groundECEF
	obsv := net.Observer
	satPos := s.satPos

	// One visibility scan per ground station — the edges the oracle's edgeIter
	// (legacy_test.go) re-derives per expansion. visSat rows are ascending by satellite ID.
	visSat := make([][]int32, len(grounds))
	visW := make([][]float64, len(grounds))
	downDeg := make([]int32, net.Sats())
	for gi, g := range grounds {
		var ids []int32
		var ws []float64
		for id, pos := range satPos {
			if obsv.Visible(g, id, pos) {
				ids = append(ids, int32(id))
				ws = append(ws, units.PropagationDelayMs(g.Distance(pos)))
				downDeg[id]++
			}
		}
		visSat[gi], visW[gi] = ids, ws
	}
	return assembleCSR(s, visSat, visW, downDeg)
}

// footprint is the per-Network half of the indexed scan.
type footprint struct {
	// boxes holds one cell box per (ground, shell), ground-major: the cells of
	// the shell that can hold a satellite visible from the ground.
	boxes []visibility.CellBox
	// free holds the idle scans, one per freeze that ever ran at once. Unlike
	// a sync.Pool it survives the collector, so a freeze loop allocates only
	// the CSR it returns.
	mu   sync.Mutex
	free []*indexScan
}

// indexScan is one freeze's scratch: the bucketed snapshot and the rows
// assembleCSR copies out of.
type indexScan struct {
	ix *visibility.Index
	// seen is the bitmap of one ground's visible satellites; ids and ws are
	// every ground's row back to back, ground gi's ending at ends[gi], which
	// visSat and visW slice.
	seen    []uint64
	ids     []int32
	ws      []float64
	ends    []int
	visSat  [][]int32
	visW    [][]float64
	downDeg []int32
}

// footprint returns the network's indexed-scan state, built on first use,
// or nil when the linear scan serves it.
func (n *Network) footprint() *footprint {
	n.fpOnce.Do(func() {
		if len(n.Grounds) >= visibility.IndexMinGrounds {
			n.fp = newFootprint(n)
		}
	})
	return n.fp
}

// newFootprint computes every ground's cell boxes. It returns nil for a
// network the index does not cover (visibility.NewSurfaceIndex).
func newFootprint(n *Network) *footprint {
	ix, boxes := visibility.NewSurfaceIndex(n.Observer, n.Grounds)
	if ix == nil {
		return nil
	}
	return &footprint{boxes: boxes, free: []*indexScan{newIndexScan(n, ix)}}
}

func newIndexScan(n *Network, ix *visibility.Index) *indexScan {
	return &indexScan{
		ix:      ix,
		seen:    make([]uint64, (n.Sats()+63)/64),
		ends:    make([]int, len(n.groundECEF)),
		visSat:  make([][]int32, len(n.groundECEF)),
		visW:    make([][]float64, len(n.groundECEF)),
		downDeg: make([]int32, n.Sats()),
	}
}

// take returns an idle scan, or a new one; nil when the index rejects the
// network's observer.
func (fp *footprint) take(n *Network) *indexScan {
	var sc *indexScan
	fp.mu.Lock()
	if last := len(fp.free) - 1; last >= 0 {
		sc, fp.free = fp.free[last], fp.free[:last]
	}
	fp.mu.Unlock()
	if sc == nil {
		ix, err := visibility.NewIndex(n.Observer, 0)
		if err != nil {
			return nil
		}
		sc = newIndexScan(n, ix)
	}
	return sc
}

func (fp *footprint) give(sc *indexScan) {
	fp.mu.Lock()
	fp.free = append(fp.free, sc)
	fp.mu.Unlock()
}

// indexFrozen is buildFrozen through the footprint index: the same rows, from
// the satellites inside each ground's boxes. It returns nil when the
// snapshot cannot be bucketed.
func indexFrozen(s *Snapshot, fp *footprint) *frozen {
	sc := fp.take(s.net)
	if sc == nil {
		return nil
	}
	defer fp.give(sc)
	if err := sc.ix.Rebuild(s.satPos); err != nil {
		return nil
	}
	sats, _ := sc.ix.CSR()

	// A ground's visible satellites are marked in the bitmap and read back in
	// ascending ID order — the linear scan's row order, without a sort.
	ids, ws, seen := sc.ids[:0], sc.ws[:0], sc.seen
	mark := func(k int32, _ float64) { seen[sats[k]>>6] |= 1 << (sats[k] & 63) }
	shells := len(s.net.Constellation.Shells)
	clear(sc.downDeg)
	for gi, g := range s.net.groundECEF {
		for si, box := range fp.boxes[gi*shells : (gi+1)*shells] {
			sc.ix.ScanBox(si, box, g, mark)
		}
		for w, word := range seen {
			for ; word != 0; word &= word - 1 {
				id := int32(w<<6 + bits.TrailingZeros64(word))
				ids = append(ids, id)
				ws = append(ws, units.PropagationDelayMs(g.Distance(s.satPos[id])))
				sc.downDeg[id]++
			}
			seen[w] = 0
		}
		sc.ends[gi] = len(ids)
	}
	// The slabs have stopped growing: carve the rows.
	sc.ids, sc.ws = ids, ws
	lo := 0
	for gi, hi := range sc.ends {
		sc.visSat[gi], sc.visW[gi] = ids[lo:hi], ws[lo:hi]
		lo = hi
	}
	return assembleCSR(s, sc.visSat, sc.visW, sc.downDeg)
}

// assembleCSR lays out the frozen CSR from per-ground visibility rows. Both
// scans funnel through it, so the array layout is shared by construction.
func assembleCSR(s *Snapshot, visSat [][]int32, visW [][]float64, downDeg []int32) *frozen {
	net := s.net
	sats := net.Sats()
	nodes := net.Nodes()
	grounds := net.groundECEF
	satPos := s.satPos
	ic := islGraph(net.Grid, sats)

	// Guard the int32 offsets before accumulating into them: directed edge
	// count is grid degree sum plus twice the ground links.
	edges64 := int64(ic.off[sats])
	for gi := range grounds {
		edges64 += 2 * int64(len(visSat[gi]))
	}
	checkEdgeBudget(edges64)

	f := &frozen{sats: sats, nodes: nodes}
	off := make([]int32, nodes+1)
	for u := 0; u < sats; u++ {
		off[u+1] = off[u] + (ic.off[u+1] - ic.off[u]) + downDeg[u]
	}
	for gi := range grounds {
		off[sats+gi+1] = off[sats+gi] + int32(len(visSat[gi]))
	}
	edges := int(off[nodes])
	adj := make([]int32, edges)
	w := make([]float64, edges)

	// Satellite rows, part 1: +grid ISLs in the static CSR's (= legacy
	// Neighbors) order. Each undirected link's delay is computed once at
	// its higher-endpoint row and mirrored into the lower one already
	// written — Vec3.Distance is exactly symmetric, so the shared value is
	// the one both slots would have computed.
	cursor := make([]int32, sats)
	for u := 0; u < sats; u++ {
		k := off[u]
		pu := satPos[u]
		for e := ic.off[u]; e < ic.off[u+1]; e++ {
			nb := ic.adj[e]
			adj[k] = nb
			if r := ic.rev[e]; nb < int32(u) && r >= 0 {
				w[k] = w[off[nb]+(r-ic.off[nb])]
			} else {
				w[k] = units.PropagationDelayMs(pu.Distance(satPos[nb]))
			}
			k++
		}
		cursor[u] = k
	}
	// Satellite rows, part 2 (downlinks, ascending ground index) and ground
	// rows (uplinks, ascending satellite ID) in one pass. The downlink
	// weight reuses the uplink value: Distance(a,b) == Distance(b,a) bitwise.
	for gi := range grounds {
		base := off[sats+gi]
		for i, sat := range visSat[gi] {
			uw := visW[gi][i]
			adj[base+int32(i)] = sat
			w[base+int32(i)] = uw
			k := cursor[sat]
			adj[k] = int32(sats + gi)
			w[k] = uw
			cursor[sat] = k + 1
		}
	}

	f.g = csr{off: off, adj: adj, w: w}
	f.satPos = satPos
	f.groundPos = grounds
	return f
}

// checkEdgeBudget panics with *ErrGraphTooLarge when a directed edge count
// cannot be addressed by the int32 CSR offsets.
func checkEdgeBudget(edges int64) {
	if edges > math.MaxInt32 {
		panic(&ErrGraphTooLarge{Edges: edges})
	}
}

// groundRow returns the frozen uplink row of ground station gi: visible
// satellite IDs ascending and their one-way weights; empty for a gi out of
// range.
func (f *frozen) groundRow(gi int) (adj []int32, w []float64) {
	if gi < 0 || gi >= f.nodes-f.sats {
		return nil, nil
	}
	lo, hi := f.g.off[f.sats+gi], f.g.off[f.sats+gi+1]
	return f.g.adj[lo:hi], f.g.w[lo:hi]
}
