package netgraph

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
)

// overlayNet builds a full Starlink phase-1 network (5 shells, 4409 sats) —
// large enough to get ALT tables (overlayMinSats) — with a handful of ground
// stations for the frozen-graph queries.
func overlayNet(t *testing.T) *Network {
	t.Helper()
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, []geo.LatLon{
		{LatDeg: 47.6, LonDeg: -122.3},
		{LatDeg: 51.5, LonDeg: -0.1},
		{LatDeg: -33.9, LonDeg: 151.2},
		{LatDeg: 1.3, LonDeg: 103.8},
	})
}

// rawISL is the un-pruned reference: the plain legacy-order Dijkstra over
// the ISL grid, bypassing the overlay entirely.
func rawISL(g csr, a, b int) (Path, bool) {
	c := getCtx(len(g.off) - 1)
	defer putCtx(c)
	c.next()
	c.dijkstra(g, int32(a), int32(b))
	d := c.distAt(int32(b))
	if math.IsInf(d, 1) {
		return Path{}, false
	}
	return Path{Nodes: c.pathTo(int32(b)), OneWayMs: d}, true
}

func pathsEqual(t *testing.T, tag string, got, want Path) {
	t.Helper()
	if got.OneWayMs != want.OneWayMs { // bitwise: same adds in same order
		t.Fatalf("%s: OneWayMs %v != reference %v", tag, got.OneWayMs, want.OneWayMs)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: path length %d != reference %d", tag, len(got.Nodes), len(want.Nodes))
	}
	for i := range got.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatalf("%s: node[%d] = %d != reference %d", tag, i, got.Nodes[i], want.Nodes[i])
		}
	}
}

// TestOverlayBuilds asserts the closed-form edge bounds survive sampled
// verification on the real multi-shell preset (J2 and Earth rotation are
// common rotations per shell, so the bounds must hold).
func TestOverlayBuilds(t *testing.T) {
	n := overlayNet(t)
	ov := n.islOverlay()
	if ov.sats != n.Sats() {
		t.Fatalf("overlay sats = %d, want %d", ov.sats, n.Sats())
	}
	if !ov.valid {
		t.Fatal("overlay failed verification on StarlinkPhase1")
	}
	if len(ov.lm) != n.Sats()*overlayLandmarks {
		t.Fatalf("landmark table size %d", len(ov.lm))
	}
	// The tables are labels rows over the lower-bound graph: the ordered
	// oracle must build the same bits, and with them pick the same landmarks.
	oracle := buildOverlay(n, oracleRow)
	if !oracle.valid || len(oracle.lm) != len(ov.lm) {
		t.Fatalf("oracle overlay valid=%v with %d entries", oracle.valid, len(oracle.lm))
	}
	for k, d := range ov.lm {
		if math.Float64bits(d) != math.Float64bits(oracle.lm[k]) {
			t.Fatalf("lm[sat %d, landmark %d] = %v, oracle %v", k/overlayLandmarks, k%overlayLandmarks, d, oracle.lm[k])
		}
	}
	// Landmark tables must be admissible against real snapshot distances:
	// spot-check π(v) ≤ d(v, dst) for a far pair via the reference Dijkstra.
	snap := n.At(137)
	ic := islGraph(n.Grid, n.Sats())
	g := csr{off: ic.off, adj: ic.adj, pos: snap.satPos}
	a, b := 3, n.Sats()/3
	want, ok := rawISL(g, a, b)
	if !ok {
		t.Skip("reference pair unreachable")
	}
	h := &islHeur{pos: snap.satPos, dst: snap.satPos[b], lm: ov.lm}
	base := b * overlayLandmarks
	for i := range h.lt {
		h.lt[i] = ov.lm[base+i]
	}
	if pi := h.eval(int32(a)); pi > want.OneWayMs {
		t.Fatalf("heuristic %v exceeds true distance %v", pi, want.OneWayMs)
	}
}

// TestOverlayISLEquality sweeps satellite pairs (same-shell, cross-shell,
// near, antipodal) and asserts the overlay-pruned ISLPath returns exactly —
// bitwise latency, node for node — what the plain core returns.
func TestOverlayISLEquality(t *testing.T) {
	n := overlayNet(t)
	sats := n.Sats()
	csts := n.Constellation.Satellites
	for _, tSec := range []float64{0, 911, 3604} {
		snap := n.At(tSec)
		ic := islGraph(n.Grid, sats)
		g := csr{off: ic.off, adj: ic.adj, pos: snap.satPos}
		checked, skipped := 0, 0
		for a := 0; a < sats; a += 487 {
			for b := sats - 1; b > a; b -= 613 {
				want, ok := rawISL(g, a, b)
				got, err := snap.ISLPath(a, b)
				if !ok {
					if !errors.Is(err, ErrNoPath) {
						t.Fatalf("(%d,%d) t=%v: want ErrNoPath, got %v", a, b, tSec, err)
					}
					skipped++
					continue
				}
				if err != nil {
					t.Fatalf("(%d,%d) t=%v: %v", a, b, tSec, err)
				}
				pathsEqual(t, "isl", got, want)
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("t=%v: no reachable pairs checked", tSec)
		}
		// Multi-shell grids have no inter-shell ISLs, so at least one sampled
		// pair must have exercised the unreachable branch.
		cross := false
		for a := 0; a < sats && !cross; a += 487 {
			for b := sats - 1; b > a; b -= 613 {
				if csts[a].ShellIndex != csts[b].ShellIndex {
					cross = true
					break
				}
			}
		}
		if cross && skipped == 0 {
			t.Fatalf("t=%v: cross-shell pairs sampled but none unreachable", tSec)
		}
	}
}

// TestOverlayFrozenEquality does the same for ShortestPath on the mixed
// ground+satellite frozen graph, where only the line-of-sight heuristic is
// admissible.
func TestOverlayFrozenEquality(t *testing.T) {
	n := overlayNet(t)
	snap := n.At(1800)
	f := snap.frozen()
	ref := func(src, dst NodeID) (Path, bool) {
		c := getCtx(f.nodes)
		defer putCtx(c)
		c.next()
		c.dijkstra(f.g, int32(src), int32(dst))
		d := c.distAt(int32(dst))
		if math.IsInf(d, 1) {
			return Path{}, false
		}
		return Path{Nodes: c.pathTo(int32(dst)), OneWayMs: d}, true
	}
	var pairs [][2]NodeID
	for gi := 0; gi < len(n.Grounds); gi++ {
		for gj := gi + 1; gj < len(n.Grounds); gj++ {
			pairs = append(pairs, [2]NodeID{n.GroundNode(gi), n.GroundNode(gj)})
		}
	}
	for s := 11; s < n.Sats(); s += 1021 {
		pairs = append(pairs, [2]NodeID{n.GroundNode(0), n.SatNode(s)})
		pairs = append(pairs, [2]NodeID{n.SatNode(s), n.SatNode((s + n.Sats()/2) % n.Sats())})
	}
	checked := 0
	for _, p := range pairs {
		want, ok := ref(p[0], p[1])
		got, err := snap.ShortestPath(p[0], p[1])
		if !ok {
			if !errors.Is(err, ErrNoPath) {
				t.Fatalf("(%d,%d): want ErrNoPath, got %v", p[0], p[1], err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("(%d,%d): %v", p[0], p[1], err)
		}
		pathsEqual(t, "frozen", got, want)
		checked++
	}
	if checked == 0 {
		t.Fatal("no reachable pairs checked")
	}
}

// TestOverlayGate: a grid below overlayMinSats gets no ALT tables — and its
// ISL queries, goal-directed on the line-of-sight bound alone, still answer
// exactly as the plain core does.
func TestOverlayGate(t *testing.T) {
	c, err := constellation.Build("small", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 20, SatsPerPlane: 20, PhaseFactor: 3, MinElevationDeg: 10},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := New(c, nil)
	if n.Sats() >= overlayMinSats {
		t.Fatalf("test shell has %d sats, not below the gate (%d)", n.Sats(), overlayMinSats)
	}
	if ov := n.islOverlay(); ov.valid || ov.lm != nil {
		t.Fatalf("ALT tables built for a %d-sat grid (gate %d)", n.Sats(), overlayMinSats)
	}
	snap := n.At(60)
	ic := islGraph(n.Grid, n.Sats())
	g := csr{off: ic.off, adj: ic.adj, pos: snap.satPos}
	for a := 0; a < n.Sats(); a += 37 {
		b := (a*7 + 191) % n.Sats()
		if a == b {
			continue
		}
		want, ok := rawISL(g, a, b)
		got, err := snap.ISLPath(a, b)
		if !ok || err != nil {
			t.Fatalf("(%d,%d): reference ok=%v, ISLPath err=%v", a, b, ok, err)
		}
		pathsEqual(t, "small isl", got, want)
	}
}
