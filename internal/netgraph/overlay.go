package netgraph

// The routing overlay: the heuristics that make point-to-point queries
// goal-directed — a line-of-sight bound for any node pair and a landmark
// (ALT) layer precomputed once per ISL grid — while keeping their answers
// bit-identical to the plain Dijkstra's.
//
// The ISL +grid's topology is static; only edge lengths move with the
// snapshot. For two satellites riding circular orbits of the same radius
// and rate, the inter-satellite distance is a closed-form harmonic in time:
// with unit position u_i(t) = c_i·cosθ + s_i·sinθ (θ = nt; c_i, s_i the
// ECI position/velocity directions at epoch),
//
//	u_i·u_j = (cc+ss)/2 + [(cc−ss)/2]·cos2θ + [(cs+sc)/2]·sin2θ
//
// whose maximum is M + B with M = (cc+ss)/2, B = hypot(cc−ss, cs+sc)/2 —
// so r·√(2 − 2(M+B)) lower-bounds the link length at every instant (J2
// precession and Earth rotation apply a common rotation to both endpoints
// of a same-shell link, leaving the dot products invariant). Each per-edge
// bound is verified against sampled propagated positions at build time;
// edges the closed form does not cover (cross-shell, missing propagators)
// fall back to a zero bound, which is always sound.
//
// Over the lower-bound metric the overlay picks a handful of landmarks by
// farthest-point traversal and stores exact lower-bound distances from each
// — the classic ALT tables. At query time the triangle inequality turns
// them into an admissible estimate of the remaining ISL distance,
//
//	π(v) = max_L |d_lb(L, v) − d_lb(L, dst)|  ≤  d_lb(v, dst)  ≤  d(v, dst),
//
// combined with the line-of-sight bound |pos(v) − pos(dst)|/c, which also
// holds for ground nodes and is the sole heuristic on the mixed
// ground+satellite graph (a ground bounce may undercut any ISL-only
// metric, so the ALT tables must not prune there).
//
// Queries are one astar pass (query.go) keyed by dist+π: re-push on
// improvement, a canonical rule for exact ties and a stop key a hair past
// dist[dst] make its latency and node sequence the plain Dijkstra's, bit for
// bit (the argument is in query.go's header). Every point-to-point query
// takes it, at any constellation size — on 64- to 506-satellite Walker shells
// it measures 0.37–0.75× the early-exit Dijkstra it replaced (EXPERIMENTS.md);
// only the ALT tables wait for a node-count threshold, and any build-time
// verification failure disables them (line-of-sight pruning still applies).

import (
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/units"
)

const (
	// overlayMinSats is the grid size below which no ALT tables are built;
	// queries there are goal-directed on the line-of-sight bound alone.
	overlayMinSats = 512
	// overlayLandmarks is the ALT table width. Eight farthest-point
	// landmarks cover a +grid torus well; the per-node tables are stored
	// node-major so one query evaluation touches one cache line.
	overlayLandmarks = 8
	// overlayVerifySamples is how many instants across the relative-motion
	// period each closed-form edge bound is checked against before the
	// tables are trusted.
	overlayVerifySamples = 8
	// overlayLbSlack relatively deflates each closed-form bound so ulp-level
	// rounding in the propagated positions cannot tip it above the true
	// distance.
	overlayLbSlack = 1e-9
)

// overlay is the per-grid ALT layer: lower-bound edge weights and
// node-major landmark distance tables. valid=false means verification
// failed — only the line-of-sight heuristic may be used.
type overlay struct {
	sats  int
	valid bool
	lm    []float64 // lm[v*overlayLandmarks+i] = d_lb(L_i, v); +Inf unreachable
}

var overlayCache sync.Map // *isl.Grid -> *overlay

// islOverlay returns the network's ALT overlay, building and verifying it
// on first use and caching it per grid (standalone ISLShortest callers
// share it through the cache).
func (n *Network) islOverlay() *overlay {
	if v, ok := overlayCache.Load(n.Grid); ok {
		if ov := v.(*overlay); ov.sats == n.Sats() {
			return ov
		}
	}
	ov := buildOverlay(n, (*queryCtx).labels)
	overlayCache.Store(n.Grid, ov)
	return ov
}

// cachedOverlay returns the overlay for g only if some network already
// built one (the standalone ISLShortest path, which has no constellation to
// build from).
func cachedOverlay(g *isl.Grid, sats int) *overlay {
	if v, ok := overlayCache.Load(g); ok {
		if ov := v.(*overlay); ov.sats == sats {
			return ov
		}
	}
	return nil
}

// buildOverlay verifies the lower bounds and builds the tables, each row by
// sssp, which fills c.dist from src: labels, or the ordered oracle in tests.
func buildOverlay(n *Network, sssp func(c *queryCtx, g csr, src int)) *overlay {
	sats := n.Sats()
	ov := &overlay{sats: sats}
	if sats < overlayMinSats {
		return ov
	}
	csts := n.Constellation.Satellites
	shells := n.Constellation.Shells
	ic := islGraph(n.Grid, sats)

	// Epoch ECI direction bases. The closed form needs both endpoints on
	// the same shell (same radius, rate, precession); cross-shell or
	// propagator-less edges get a zero bound.
	cb := make([]geo.Vec3, sats)
	sb := make([]geo.Vec3, sats)
	for id := range csts {
		p := csts[id].Prop
		if p == nil {
			return ov
		}
		cb[id] = p.ECIAt(0).Unit()
		sb[id] = p.ECIVelocityAt(0).Unit()
	}

	lb := make([]float64, ic.off[sats])
	for u := 0; u < sats; u++ {
		shu := csts[u].ShellIndex
		r := units.EarthRadiusKm + shells[shu].AltitudeKm
		for e := ic.off[u]; e < ic.off[u+1]; e++ {
			v := ic.adj[e]
			if csts[v].ShellIndex != shu {
				continue // lb stays 0: sound for any geometry
			}
			cc := cb[u].Dot(cb[v])
			ss := sb[u].Dot(sb[v])
			cs := cb[u].Dot(sb[v])
			sc := sb[u].Dot(cb[v])
			maxCos := 0.5*(cc+ss) + 0.5*math.Hypot(cc-ss, cs+sc)
			d2 := r * r * (2 - 2*maxCos)
			if d2 < 0 {
				d2 = 0
			}
			lb[e] = units.PropagationDelayMs(math.Sqrt(d2)) * (1 - overlayLbSlack)
		}
	}

	// Verify every bound against propagated positions sampled across the
	// relative-motion period (the harmonic has period π/n). Any violation
	// means the constellation's motion model diverged from the closed form:
	// the ALT tables are not sound, so they stay disabled.
	period := units.OrbitalPeriodSec(shells[0].AltitudeKm)
	for k := 0; k < overlayVerifySamples; k++ {
		t := float64(k) * period / (2 * overlayVerifySamples)
		pos := n.Constellation.Snapshot(t)
		for u := 0; u < sats; u++ {
			pu := pos[u]
			for e := ic.off[u]; e < ic.off[u+1]; e++ {
				if lb[e] > units.PropagationDelayMs(pu.Distance(pos[ic.adj[e]]))+1e-9 {
					return ov
				}
			}
		}
	}

	// Farthest-point landmarks over the lower-bound metric, with exact
	// lower-bound SSSP tables stored node-major. An unreached argmax means
	// another component (multi-shell grids): the next landmark lands there.
	g := csr{off: ic.off, adj: ic.adj, w: lb}
	ov.lm = make([]float64, sats*overlayLandmarks)
	minD := make([]float64, sats)
	for v := range minD {
		minD[v] = math.Inf(1)
	}
	c := getCtx(sats)
	next := 0
	for i := 0; i < overlayLandmarks; i++ {
		c.next()
		sssp(c, g, next)
		for v, d := range c.dist {
			ov.lm[v*overlayLandmarks+i] = d
			if d < minD[v] {
				minD[v] = d
			}
		}
		next = 0
		best := -1.0
		for v := 0; v < sats; v++ {
			if minD[v] > best || math.IsInf(minD[v], 1) && !math.IsInf(best, 1) {
				best = minD[v]
				next = v
				if math.IsInf(best, 1) {
					break
				}
			}
		}
	}
	putCtx(c)
	ov.valid = true
	return ov
}

// losHeur lower-bounds the remaining distance by straight-line propagation
// delay to the destination — admissible on any graph whose edge weights are
// propagation delays (triangle inequality), ground nodes included.
type losHeur struct {
	f   *frozen
	dst geo.Vec3
}

func (h *losHeur) eval(v int32) float64 {
	return units.PropagationDelayMs(h.f.pos(v).Distance(h.dst))
}

// islHeur combines the line-of-sight bound with the ALT tables on the pure
// ISL graph. Landmarks with an unreachable endpoint contribute nothing
// (Inf−Inf is meaningless; 0 is always admissible).
type islHeur struct {
	pos []geo.Vec3
	dst geo.Vec3
	lm  []float64
	lt  [overlayLandmarks]float64
}

// init aims h at satellite b under satPos, with g's ALT tables when built.
func (h *islHeur) init(g *isl.Grid, satPos []geo.Vec3, b int) {
	*h = islHeur{pos: satPos, dst: satPos[b]}
	if ov := cachedOverlay(g, len(satPos)); ov != nil && ov.valid {
		h.lm = ov.lm
		copy(h.lt[:], ov.lm[b*overlayLandmarks:])
	}
}

func (h *islHeur) eval(v int32) float64 {
	pi := units.PropagationDelayMs(h.pos[v].Distance(h.dst))
	if h.lm != nil {
		base := int(v) * overlayLandmarks
		for i := 0; i < overlayLandmarks; i++ {
			lv, lt := h.lm[base+i], h.lt[i]
			if math.IsInf(lv, 1) || math.IsInf(lt, 1) {
				continue
			}
			d := lv - lt
			if d < 0 {
				d = -d
			}
			if d > pi {
				pi = d
			}
		}
	}
	return pi
}
