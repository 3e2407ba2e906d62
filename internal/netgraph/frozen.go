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
// visible satellites ascending — the rows the network's visibility.Surface
// hands out, through its footprint index or its linear scan alike.

import (
	"fmt"
	"math"
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
		s.net.surface().Scan(s.satPos, func(rows [][]int32) { s.frz = assembleCSR(s, rows) })
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

// surface returns the network's visibility.Surface over its grounds, built
// on first use from the network's Observer.
func (n *Network) surface() *visibility.Surface {
	n.surfOnce.Do(func() { n.surf = visibility.NewSurface(n.Observer, n.Grounds) })
	return n.surf
}

// spanEnder is the slice of obs.Span the freeze path needs.
type spanEnder interface{ End() float64 }

// assembleCSR lays out the frozen CSR from per-ground visibility rows: rows[gi]
// holds the IDs of the satellites ground gi sees, ascending.
func assembleCSR(s *Snapshot, rows [][]int32) *frozen {
	net := s.net
	sats := net.Sats()
	nodes := net.Nodes()
	grounds := net.groundECEF
	satPos := s.satPos
	ic := islGraph(net.Grid, sats)

	// Guard the int32 offsets before accumulating into them: directed edge
	// count is grid degree sum plus twice the ground links. cursor holds each
	// satellite's downlink count until its row's write cursor replaces it.
	edges64 := int64(ic.off[sats])
	cursor := make([]int32, sats)
	for _, row := range rows {
		edges64 += 2 * int64(len(row))
		for _, sat := range row {
			cursor[sat]++
		}
	}
	checkEdgeBudget(edges64)

	f := &frozen{sats: sats, nodes: nodes}
	off := make([]int32, nodes+1)
	for u := 0; u < sats; u++ {
		off[u+1] = off[u] + (ic.off[u+1] - ic.off[u]) + cursor[u]
	}
	for gi, row := range rows {
		off[sats+gi+1] = off[sats+gi] + int32(len(row))
	}
	edges := int(off[nodes])
	adj := make([]int32, edges)
	w := make([]float64, edges)

	// Satellite rows, part 1: +grid ISLs in the static CSR's (= legacy
	// Neighbors) order. Each undirected link's delay is computed once at
	// its higher-endpoint row and mirrored into the lower one already
	// written — Vec3.Distance is exactly symmetric, so the shared value is
	// the one both slots would have computed.
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
	for gi, row := range rows {
		base := off[sats+gi]
		for i, sat := range row {
			uw := units.PropagationDelayMs(grounds[gi].Distance(satPos[sat]))
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
