// Package netgraph models the time-varying LEO network as a weighted graph:
// satellites joined by +grid inter-satellite links, ground stations joined
// to every satellite they can currently see. Edge weights are one-way
// propagation delays in milliseconds, matching the paper's
// propagation-only latency accounting.
//
// Routing runs on a frozen-graph engine: each Snapshot freezes its topology
// into CSR adjacency once (frozen.go), queries share a pooled search core on
// one monotone bucket queue — a label-only search for the SSSP rows, one-pass
// goal-directed search on the line-of-sight bound for point-to-point paths
// (query.go) — and multi-source fan-outs parallelise across GOMAXPROCS
// (parallel.go). The public entry points here are thin wrappers that return
// results bit-identical to the pre-freeze implementations the tests keep as
// their oracle (legacy_test.go).
package netgraph

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/units"
	"repro/internal/visibility"
)

// NodeID identifies a node: satellite IDs are [0, Sats); ground stations
// follow at [Sats, Sats+Grounds).
type NodeID int

// Network is the static description: constellation + ISL grid + ground
// station sites. Build snapshots with At.
type Network struct {
	Constellation *constellation.Constellation
	Grid          *isl.Grid
	// Observer decides ground–satellite visibility. The first freeze builds
	// the network's Surface from it, so set it before the first At.
	Observer *visibility.Observer
	Grounds  []geo.LatLon

	groundECEF []geo.Vec3
	eng        *ephem.Engine // optional shared ephemeris
	m          *metricsSet   // optional registry override (UseObs)

	// surf answers the freeze's visibility scan (frozen.go), built by the
	// first one.
	surfOnce sync.Once
	surf     *visibility.Surface
}

// UseEphemeris routes snapshot propagation through a shared ephemeris
// engine, so network snapshots reuse frames other consumers already
// propagated. Returns n for chaining.
func (n *Network) UseEphemeris(eng *ephem.Engine) *Network {
	n.eng = eng
	return n
}

// New assembles a network over the constellation with a +grid ISL topology
// and the given ground stations.
func New(c *constellation.Constellation, grounds []geo.LatLon) *Network {
	n := &Network{
		Constellation: c,
		Grid:          isl.NewPlusGrid(c),
		Observer:      visibility.NewObserver(c),
		Grounds:       grounds,
		groundECEF:    make([]geo.Vec3, len(grounds)),
	}
	for i, g := range grounds {
		n.groundECEF[i] = g.ECEF()
	}
	return n
}

// Sats returns the number of satellite nodes.
func (n *Network) Sats() int { return n.Constellation.Size() }

// Nodes returns the total node count.
func (n *Network) Nodes() int { return n.Constellation.Size() + len(n.Grounds) }

// SatNode converts a satellite ID to a NodeID.
func (n *Network) SatNode(satID int) NodeID { return NodeID(satID) }

// GroundNode converts a ground-station index to a NodeID.
func (n *Network) GroundNode(i int) NodeID { return NodeID(n.Sats() + i) }

// IsSat reports whether id is a satellite node.
func (n *Network) IsSat(id NodeID) bool { return int(id) < n.Sats() }

// noCopy triggers go vet's copylocks check when embedded in a struct that
// must not be copied by value.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Snapshot freezes the network at one instant; all routing queries run
// against a snapshot. The first query (or an explicit Freeze) builds the
// CSR adjacency every later query reuses, so a Snapshot must not be copied
// (enforced by the noCopy vet guard).
type Snapshot struct {
	noCopy noCopy //nolint:unused // vet copylocks guard

	net *Network
	// satPos[id] is the ECEF position of satellite id.
	satPos []geo.Vec3

	frzOnce sync.Once
	frz     *frozen
}

// At builds a snapshot at t seconds after epoch. With an ephemeris engine
// attached the positions are a shared cached frame (treat them as
// immutable); otherwise they are propagated fresh.
func (n *Network) At(tSec float64) *Snapshot {
	if n.eng != nil {
		return &Snapshot{net: n, satPos: n.eng.SnapshotAt(tSec)}
	}
	return &Snapshot{net: n, satPos: n.Constellation.Snapshot(tSec)}
}

// AtAfter is At(tSec): snapshots hold no state of their predecessors. It
// remains only because bench/ calls it, and leaves with the next benchmark
// PR (as serve.EngineStats does).
func (n *Network) AtAfter(_ *Snapshot, tSec float64) *Snapshot { return n.At(tSec) }

// Position returns the ECEF position of any node.
func (s *Snapshot) Position(id NodeID) geo.Vec3 {
	if s.net.IsSat(id) {
		return s.satPos[id]
	}
	return s.net.groundECEF[int(id)-s.net.Sats()]
}

// Freeze builds the snapshot's CSR adjacency eagerly (it is otherwise built
// on first query). Useful to move the one-time cost off a latency-sensitive
// path, or before timing queries in isolation.
func (s *Snapshot) Freeze() { s.frozen() }

// VisibleSats returns the satellite IDs currently reachable from ground
// station gi, ascending; nil when gi is out of range, since it names no
// ground. Served from the frozen CSR ground row — one visibility scan per
// snapshot instead of one per call.
func (s *Snapshot) VisibleSats(gi int) []int {
	adj, _ := s.frozen().groundRow(gi)
	if len(adj) == 0 {
		return nil
	}
	out := make([]int, len(adj))
	for i, v := range adj {
		out[i] = int(v)
	}
	return out
}

// ErrNoPath is returned when two nodes are not connected at the snapshot.
var ErrNoPath = fmt.Errorf("netgraph: no path")

func errOutOfRange(src, dst NodeID, nodes int) error {
	return fmt.Errorf("netgraph: node out of range (src=%d dst=%d nodes=%d)", src, dst, nodes)
}

func errSatOutOfRange(a, b, sats int) error {
	return fmt.Errorf("netgraph: satellite out of range (a=%d b=%d sats=%d)", a, b, sats)
}

func errPosMismatch(positions, sats int) error {
	return fmt.Errorf("netgraph: %d satellite positions for a %d-satellite ISL grid", positions, sats)
}

// Path is a routed path with its one-way latency.
type Path struct {
	// Nodes from source to destination inclusive.
	Nodes []NodeID
	// OneWayMs is the summed propagation delay.
	OneWayMs float64
}

// ShortestPath runs Dijkstra from src to dst over the snapshot's frozen
// graph and returns the minimum-propagation-delay path.
func (s *Snapshot) ShortestPath(src, dst NodeID) (Path, error) {
	nNodes := s.net.Nodes()
	if int(src) < 0 || int(src) >= nNodes || int(dst) < 0 || int(dst) >= nNodes {
		return Path{}, errOutOfRange(src, dst, nNodes)
	}
	if src == dst {
		return Path{Nodes: []NodeID{src}}, nil
	}
	start := time.Now()
	f := s.frozen()
	return route(f.g, f.satPos, f.groundPos, int32(src), int32(dst), &s.net.metrics().path, start)
}

// route answers one point-to-point query on g, whose nodes sit at sats then
// grounds, with the goal-directed search on the line-of-sight bound — the
// answer is bit-identical to the plain dijkstra's — and records it under
// kind k as begun at start.
func route(g csr, sats, grounds []geo.Vec3, src, dst int32, k *kindMetrics, start time.Time) (Path, error) {
	c := getCtx(len(sats) + len(grounds))
	c.ih.aim(sats, grounds, dst)
	var p Path
	if c.astar(g, src, dst, &c.ih, math.Inf(1)) {
		p = Path{Nodes: c.pathTo(dst), OneWayMs: c.dist[dst]}
	}
	putCtx(c)
	k.observe(start)
	if p.Nodes == nil {
		return Path{}, ErrNoPath
	}
	return p, nil
}

// ISLPath returns the shortest ISL-only path between two satellites at the
// snapshot: ISLShortest on the snapshot's positions.
func (s *Snapshot) ISLPath(a, b int) (Path, error) {
	return ISLShortest(s.net.Grid, s.satPos, a, b)
}

// islCSR is the static topology of one +grid, frozen once per Grid: the
// adjacency never changes, only the positions (and so the weights) do, so
// queries run the on-the-fly-weight branch of the shared Dijkstra core.
type islCSR struct {
	off []int32
	adj []int32
	// rev[e] is the index of edge e's reverse (v→u for e=u→v), or -1 when
	// the grid is asymmetric there. Link delays are symmetric, so the CSR
	// assembly computes each undirected weight once and writes both slots.
	rev []int32
}

var islCSRCache sync.Map // *isl.Grid -> islCSR

// islGraph returns g's static CSR over its g.Size() satellites, building it
// on first use.
func islGraph(g *isl.Grid) islCSR {
	if v, ok := islCSRCache.Load(g); ok {
		return v.(islCSR)
	}
	sats := g.Size()
	off := make([]int32, sats+1)
	for u := 0; u < sats; u++ {
		off[u+1] = off[u] + int32(len(g.Neighbors(u)))
	}
	adj := make([]int32, off[sats])
	k := 0
	for u := 0; u < sats; u++ {
		for _, nb := range g.Neighbors(u) {
			adj[k] = int32(nb)
			k++
		}
	}
	rev := make([]int32, off[sats])
	for u := 0; u < sats; u++ {
		for e := off[u]; e < off[u+1]; e++ {
			rev[e] = -1
			v := adj[e]
			for f := off[v]; f < off[v+1]; f++ {
				if adj[f] == int32(u) {
					rev[e] = f
					break
				}
			}
		}
	}
	v, _ := islCSRCache.LoadOrStore(g, islCSR{off: off, adj: adj, rev: rev})
	return v.(islCSR)
}

// ISLShortest runs Dijkstra over the ISL grid alone, with positions given by
// satPos (indexed by satellite ID, one per grid satellite). It is the
// standalone form used by packages that manage their own snapshots (meetup,
// the ablation); it shares the pooled query core, with the grid's static CSR
// cached per Grid. A satPos of another length than the grid's is refused.
func ISLShortest(g *isl.Grid, satPos []geo.Vec3, a, b int) (Path, error) {
	sats := len(satPos)
	if sats != g.Size() {
		return Path{}, errPosMismatch(sats, g.Size())
	}
	if a < 0 || a >= sats || b < 0 || b >= sats {
		return Path{}, errSatOutOfRange(a, b, sats)
	}
	if a == b {
		return Path{Nodes: []NodeID{NodeID(a)}}, nil
	}
	start := time.Now()
	ic := islGraph(g)
	return route(csr{off: ic.off, adj: ic.adj, pos: satPos}, satPos, nil, int32(a), int32(b), &defaultMetrics().isl, start)
}

// ISLWithin is ISLShortest's latency D capped at maxMs, bit for bit: (D, true)
// when D ≤ maxMs, else (maxMs, false), for no path too. Its search stops past
// maxMs; a satPos of another length than the grid's, out-of-range IDs and a
// NaN or negative maxMs run none. It builds no Path, allocates nothing and
// records on the isl query kind.
func ISLWithin(g *isl.Grid, satPos []geo.Vec3, a, b int, maxMs float64) (ms float64, ok bool) {
	sats := len(satPos)
	if sats != g.Size() || a < 0 || a >= sats || b < 0 || b >= sats || !(maxMs >= 0) {
		return maxMs, false
	}
	if a == b {
		return 0, true
	}
	start := time.Now()
	ic := islGraph(g)
	c := getCtx(sats)
	c.ih.aim(satPos, nil, int32(b))
	ms = maxMs
	if c.astar(csr{off: ic.off, adj: ic.adj, pos: satPos}, int32(a), int32(b), &c.ih, maxMs) && c.dist[b] <= maxMs {
		ms, ok = c.dist[b], true
	}
	putCtx(c)
	defaultMetrics().isl.observe(start)
	return ms, ok
}

// LatencyToAllSatsInto writes the one-way latency in milliseconds from
// ground station gi to every satellite (indexed by satellite ID) into dst,
// grown if too small, and returns it: +Inf where no path exists, everywhere
// when gi is out of range, since it names no ground. One SSSP pass; a
// reused dst makes zero allocations per query.
func (s *Snapshot) LatencyToAllSatsInto(gi int, dst []float64) []float64 {
	src := -1
	if gi >= 0 && gi < len(s.net.Grounds) {
		src = s.net.Sats() + gi
	}
	return s.row(src, s.net.Sats(), dst)
}

// LatencyToAllNodesInto writes the one-way latency from src to every node
// (satellites then ground stations) into dst, grown if too small, and
// returns it: +Inf where unreachable, everywhere when src is out of range.
func (s *Snapshot) LatencyToAllNodesInto(src NodeID, dst []float64) []float64 {
	return s.row(int(src), s.net.Nodes(), dst)
}

// row runs the label-only SSSP from node src (outside [0, Nodes) it reaches
// nothing) and copies the first w latencies into dst, grown if too small.
func (s *Snapshot) row(src, w int, dst []float64) []float64 {
	start := time.Now()
	f := s.frozen()
	if cap(dst) < w {
		dst = make([]float64, w)
	}
	dst = dst[:w]
	c := getCtx(f.nodes)
	c.labels(f.g, src)
	copy(dst, c.dist)
	putCtx(c)
	s.net.metrics().sssp.observe(start)
	return dst
}

// LatenciesWithin appends to dst every node within maxMs one-way of src with
// its latency, nearest first, and returns the extended slice: the prefix of
// LatencyToAllNodesInto's row a caller with a known price ceiling needs, at
// the cost of the nodes inside the radius instead of the whole reachable
// graph. Each reported latency is bit-equal to the full row's; a node not
// reported is farther than maxMs (or unreachable). An out-of-range src
// appends nothing.
func (s *Snapshot) LatenciesWithin(src NodeID, maxMs float64, dst []NodeMs) []NodeMs {
	start := time.Now()
	f := s.frozen()
	if src >= 0 && int(src) < f.nodes {
		c := getCtx(f.nodes)
		dst = c.dijkstraWithin(f.g, int32(src), maxMs, dst)
		putCtx(c)
	}
	s.net.metrics().sssp.observe(start)
	return dst
}

// LineOfSightMs returns the direct free-space one-way latency between two
// nodes, ignoring topology. Used by the ISL-vs-LoS ablation.
func (s *Snapshot) LineOfSightMs(a, b NodeID) float64 {
	return units.PropagationDelayMs(s.Position(a).Distance(s.Position(b)))
}
