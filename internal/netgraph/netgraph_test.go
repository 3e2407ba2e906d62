package netgraph

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/units"
)

func testNet(t *testing.T, grounds []geo.LatLon) *Network {
	t.Helper()
	// A denser-than-minimum toy shell with a relaxed mask so mid-latitude
	// ground stations always see at least one satellite (the full presets
	// are exercised by the bench harness; tests stay fast).
	c, err := constellation.Build("t", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 24, PhaseFactor: 5, MinElevationDeg: 10},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, grounds)
}

func TestNodeNumbering(t *testing.T) {
	n := testNet(t, []geo.LatLon{{LatDeg: 0, LonDeg: 0}, {LatDeg: 10, LonDeg: 10}})
	if n.Sats() != 576 {
		t.Fatalf("Sats = %d", n.Sats())
	}
	if n.Nodes() != 578 {
		t.Fatalf("Nodes = %d", n.Nodes())
	}
	if !n.IsSat(n.SatNode(5)) {
		t.Fatal("SatNode should be a satellite")
	}
	if n.IsSat(n.GroundNode(0)) {
		t.Fatal("GroundNode should not be a satellite")
	}
	if n.GroundNode(1) != NodeID(577) {
		t.Fatalf("GroundNode(1) = %d", n.GroundNode(1))
	}
}

func TestPositionLookup(t *testing.T) {
	g := geo.LatLon{LatDeg: 30, LonDeg: 60}
	n := testNet(t, []geo.LatLon{g})
	s := n.At(0)
	if got := s.Position(n.GroundNode(0)); got.Distance(g.ECEF()) > 1e-9 {
		t.Fatal("ground position mismatch")
	}
	if got := s.Position(n.SatNode(7)); got.Distance(s.satPos[7]) > 1e-9 {
		t.Fatal("sat position mismatch")
	}
}

func TestSameNodePath(t *testing.T) {
	n := testNet(t, []geo.LatLon{{LatDeg: 0, LonDeg: 0}})
	s := n.At(0)
	p, err := s.ShortestPath(3, 3)
	if err != nil || p.OneWayMs != 0 || len(p.Nodes) != 1 {
		t.Fatalf("same-node path = %+v, %v", p, err)
	}
}

func TestPathOutOfRange(t *testing.T) {
	n := testNet(t, nil)
	s := n.At(0)
	if _, err := s.ShortestPath(-1, 0); err == nil {
		t.Fatal("want range error")
	}
	if _, err := s.ShortestPath(0, NodeID(n.Nodes())); err == nil {
		t.Fatal("want range error")
	}
}

// TestOutOfRangeSourcesReachNothing: a ground index or node ID outside the
// network names no node, so nothing is reachable from it. Ground -1 used to
// alias the last satellite (its row, its ISL neighbours as "visible") and an
// index past the end panicked.
func TestOutOfRangeSourcesReachNothing(t *testing.T) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := New(c, []geo.LatLon{{LatDeg: 47.6, LonDeg: -122.3}, {LatDeg: 51.5, LonDeg: -0.1}})
	s := n.At(0)
	allInf := func(tag string, row []float64, want int) {
		t.Helper()
		if len(row) != want {
			t.Fatalf("%s: %d entries, want %d", tag, len(row), want)
		}
		for v, d := range row {
			if !math.IsInf(d, 1) {
				t.Fatalf("%s: node %d reachable at %v ms", tag, v, d)
			}
		}
	}
	grounds := len(n.Grounds)
	for _, gi := range []int{-1, -5, -n.Sats(), grounds, grounds + 1, n.Nodes()} {
		allInf("LatencyToAllSatsInto(nil)", s.LatencyToAllSatsInto(gi, nil), n.Sats())
		allInf("LatencyToAllSatsInto", s.LatencyToAllSatsInto(gi, make([]float64, 3, n.Sats())), n.Sats())
		if vis := s.VisibleSats(gi); vis != nil {
			t.Fatalf("VisibleSats(%d) = %v, want nil", gi, vis)
		}
	}
	for _, src := range []NodeID{-1, -5, NodeID(n.Nodes()), NodeID(n.Nodes() + 7), 1<<32 + 3} {
		allInf("LatencyToAllNodesInto", s.LatencyToAllNodesInto(src, nil), n.Nodes())
		prefix := []NodeMs{{Node: 1, Ms: 2}}
		if got := s.LatenciesWithin(src, math.Inf(1), prefix); len(got) != 1 || got[0] != prefix[0] {
			t.Fatalf("LatenciesWithin(%d) = %v, want the prefix alone", src, got)
		}
	}
	rows := s.AllSourcesLatencies([]int{-1, 0, grounds})
	allInf("AllSourcesLatencies[-1]", rows[0], n.Sats())
	allInf("AllSourcesLatencies[Grounds]", rows[2], n.Sats())
	nodeRows := s.AllSourcesNodeLatencies([]NodeID{-1, n.GroundNode(0), NodeID(n.Nodes())})
	allInf("AllSourcesNodeLatencies[-1]", nodeRows[0], n.Nodes())
	allInf("AllSourcesNodeLatencies[Nodes]", nodeRows[2], n.Nodes())
	// The in-range rows beside them are real rows.
	for tag, row := range map[string][]float64{"sats": rows[1], "nodes": nodeRows[1]} {
		if !slices.ContainsFunc(row, func(d float64) bool { return !math.IsInf(d, 1) }) {
			t.Fatalf("in-range %s row from ground 0 reaches nothing", tag)
		}
	}
}

func TestGroundToGroundViaConstellation(t *testing.T) {
	// Two ground stations an ocean apart: path must go up, across, down.
	grounds := []geo.LatLon{
		{LatDeg: 40.71, LonDeg: -74.01}, // New York
		{LatDeg: 51.51, LonDeg: -0.13},  // London
	}
	n := testNet(t, grounds)
	s := n.At(0)
	p, err := s.ShortestPath(n.GroundNode(0), n.GroundNode(1))
	if err != nil {
		t.Fatal(err)
	}
	// Ends are the ground nodes; middle is all satellites.
	if p.Nodes[0] != n.GroundNode(0) || p.Nodes[len(p.Nodes)-1] != n.GroundNode(1) {
		t.Fatalf("path endpoints wrong: %v", p.Nodes)
	}
	for _, mid := range p.Nodes[1 : len(p.Nodes)-1] {
		if !n.IsSat(mid) {
			t.Fatalf("mid-path ground bounce at %v", mid)
		}
	}
	// Latency must be at least the geodesic propagation and at most a
	// generous detour multiple of it.
	geodesic := units.PropagationDelayMs(geo.GreatCircleKm(grounds[0], grounds[1]))
	if p.OneWayMs < geodesic {
		t.Fatalf("one-way %v ms beats the geodesic %v ms", p.OneWayMs, geodesic)
	}
	if p.OneWayMs > 4*geodesic+10 {
		t.Fatalf("one-way %v ms implausibly high vs geodesic %v ms", p.OneWayMs, geodesic)
	}
}

func TestPathLatencyMatchesEdgeSum(t *testing.T) {
	grounds := []geo.LatLon{
		{LatDeg: 9.06, LonDeg: 7.49},
		{LatDeg: -26.20, LonDeg: 28.05},
	}
	n := testNet(t, grounds)
	s := n.At(600)
	p, err := s.ShortestPath(n.GroundNode(0), n.GroundNode(1))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 1; i < len(p.Nodes); i++ {
		sum += s.LineOfSightMs(p.Nodes[i-1], p.Nodes[i])
	}
	if math.Abs(sum-p.OneWayMs) > 1e-9 {
		t.Fatalf("edge sum %v vs path %v", sum, p.OneWayMs)
	}
}

func TestTriangleOptimality(t *testing.T) {
	// Dijkstra result must not exceed any single-satellite relay latency.
	grounds := []geo.LatLon{
		{LatDeg: 5, LonDeg: 5},
		{LatDeg: 15, LonDeg: 15},
	}
	n := testNet(t, grounds)
	s := n.At(0)
	p, err := s.ShortestPath(n.GroundNode(0), n.GroundNode(1))
	if err != nil {
		t.Fatal(err)
	}
	a := s.Position(n.GroundNode(0))
	b := s.Position(n.GroundNode(1))
	for _, satID := range s.VisibleSats(0) {
		if !n.Observer.Visible(b, satID, s.satPos[satID]) {
			continue
		}
		relay := units.PropagationDelayMs(a.Distance(s.satPos[satID])) +
			units.PropagationDelayMs(b.Distance(s.satPos[satID]))
		if p.OneWayMs > relay+1e-9 {
			t.Fatalf("Dijkstra %v ms worse than single relay %v ms", p.OneWayMs, relay)
		}
	}
}

func TestSatToSatViaISL(t *testing.T) {
	n := testNet(t, nil)
	s := n.At(0)
	// Adjacent in-plane sats: one hop.
	p, err := s.ISLPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hops := len(p.Nodes) - 1; hops != 1 {
		t.Fatalf("adjacent sats hops = %d", hops)
	}
	// Same sat: zero.
	if self, err := s.ISLPath(4, 4); err != nil || self.OneWayMs != 0 {
		t.Fatalf("self latency = %v, %v", self.OneWayMs, err)
	}
	// Distant sats: latency at least line-of-sight/c, multiple hops.
	far, err := s.ISLPath(0, n.Sats()/2)
	if err != nil {
		t.Fatal(err)
	}
	if hops := len(far.Nodes) - 1; hops < 2 {
		t.Fatalf("far hops = %d", hops)
	}
	los := s.LineOfSightMs(0, NodeID(n.Sats()/2))
	if far.OneWayMs < los-1e-9 {
		t.Fatalf("ISL path %v beats line of sight %v", far.OneWayMs, los)
	}
}

func TestSatToSatRange(t *testing.T) {
	n := testNet(t, nil)
	s := n.At(0)
	if _, err := s.ISLPath(-1, 0); err == nil {
		t.Fatal("want range error")
	}
	if _, err := s.ISLPath(0, n.Sats()); err == nil {
		t.Fatal("want range error")
	}
}

func TestNoPathFromIsolatedGround(t *testing.T) {
	// A polar ground station that a 53°-inclined low shell cannot see at
	// all: no uplink edges, so no path to anywhere.
	grounds := []geo.LatLon{
		{LatDeg: 89.5, LonDeg: 0},
		{LatDeg: 0, LonDeg: 0},
	}
	n := testNet(t, grounds)
	s := n.At(0)
	if got := len(s.VisibleSats(0)); got != 0 {
		t.Skipf("pole unexpectedly covered (%d sats) — geometry changed", got)
	}
	_, err := s.ShortestPath(n.GroundNode(0), n.GroundNode(1))
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestVisibleSatsMatchesObserver(t *testing.T) {
	grounds := []geo.LatLon{{LatDeg: 20, LonDeg: 120}}
	n := testNet(t, grounds)
	s := n.At(333)
	vis := s.VisibleSats(0)
	g := grounds[0].ECEF()
	want := 0
	for id, pos := range s.satPos {
		if n.Observer.Visible(g, id, pos) {
			want++
			found := false
			for _, v := range vis {
				if v == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("sat %d visible but missing", id)
			}
		}
	}
	if len(vis) != want {
		t.Fatalf("VisibleSats len %d, want %d", len(vis), want)
	}
}

func TestGroundToSatRTT(t *testing.T) {
	grounds := []geo.LatLon{{LatDeg: 0, LonDeg: 0}}
	n := testNet(t, grounds)
	s := n.At(0)
	vis := s.VisibleSats(0)
	if len(vis) == 0 {
		t.Skip("no visible satellite at epoch")
	}
	p, err := s.ShortestPath(n.GroundNode(0), n.SatNode(vis[0]))
	if err != nil {
		t.Fatal(err)
	}
	rtt := 2 * p.OneWayMs
	direct := 2 * s.LineOfSightMs(n.GroundNode(0), n.SatNode(vis[0]))
	if math.Abs(rtt-direct) > 1e-9 {
		t.Fatalf("visible sat should be one hop: rtt %v vs direct %v", rtt, direct)
	}
}

func TestSnapshotTimeEvolves(t *testing.T) {
	n := testNet(t, nil)
	s0 := n.At(0)
	s60 := n.At(60)
	moved := s0.satPos[0].Distance(s60.satPos[0])
	// 60 s at ~7.6 km/s ≈ 455 km (minus Earth-rotation correction).
	if moved < 300 || moved > 600 {
		t.Fatalf("satellite moved %v km in 60 s", moved)
	}
}

// TestDijkstraAgainstFloydWarshall validates the shortest-path machinery
// against an O(V³) reference on a small constellation.
func TestDijkstraAgainstFloydWarshall(t *testing.T) {
	c, err := constellation.Build("fw", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 4, SatsPerPlane: 4, PhaseFactor: 1, MinElevationDeg: 10},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	grounds := []geo.LatLon{
		{LatDeg: 0, LonDeg: 0},
		{LatDeg: 30, LonDeg: 90},
		{LatDeg: -20, LonDeg: -60},
	}
	n := New(c, grounds)
	s := n.At(100)

	// Build the dense weight matrix from the same edge relation the
	// snapshot uses.
	V := n.Nodes()
	const inf = math.MaxFloat64 / 4
	dist := make([][]float64, V)
	for i := range dist {
		dist[i] = make([]float64, V)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = inf
			}
		}
	}
	for sat := 0; sat < n.Sats(); sat++ {
		for _, nb := range n.Grid.Neighbors(sat) {
			w := s.LineOfSightMs(NodeID(sat), NodeID(nb))
			dist[sat][nb] = w
			dist[nb][sat] = w
		}
	}
	for gi := range grounds {
		g := n.GroundNode(gi)
		for _, sat := range s.VisibleSats(gi) {
			w := s.LineOfSightMs(g, NodeID(sat))
			dist[g][sat] = w
			dist[sat][g] = w
		}
	}
	for k := 0; k < V; k++ {
		for i := 0; i < V; i++ {
			for j := 0; j < V; j++ {
				if d := dist[i][k] + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}

	// Compare a spread of pairs.
	for i := 0; i < V; i += 3 {
		for j := 1; j < V; j += 5 {
			p, err := s.ShortestPath(NodeID(i), NodeID(j))
			if err != nil {
				if dist[i][j] < inf/2 {
					t.Fatalf("Dijkstra says no path %d->%d but FW found %v", i, j, dist[i][j])
				}
				continue
			}
			if math.Abs(p.OneWayMs-dist[i][j]) > 1e-6 {
				t.Fatalf("pair %d->%d: Dijkstra %v vs FW %v", i, j, p.OneWayMs, dist[i][j])
			}
		}
	}
}
