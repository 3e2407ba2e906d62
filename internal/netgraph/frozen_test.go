package netgraph

// Differential tests pinning the frozen-graph engine against the legacy
// implementations in legacy_test.go: bit-identical latencies (==, no tolerance),
// identical tie-broken paths, identical errors — swept across a full
// orbital period on the Starlink and Kuiper presets.

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
)

// diffGrounds stresses the visibility scan's geometric corners: both poles,
// both sides of the dateline, and mid-latitude stations an ocean apart.
var diffGrounds = []geo.LatLon{
	{LatDeg: 89.5, LonDeg: 0},       // north pole (uncovered by 53° shells)
	{LatDeg: -89.5, LonDeg: 45},     // south pole
	{LatDeg: 0, LonDeg: 179.9},      // dateline east
	{LatDeg: 5, LonDeg: -179.9},     // dateline west
	{LatDeg: 40.71, LonDeg: -74.01}, // New York
	{LatDeg: -33.92, LonDeg: 18.42}, // Cape Town
}

// orbitalPeriodSec for a 550 km shell (Kepler); both presets' lowest shells
// sit near this altitude, so sweeping [0, period] covers every phase angle.
const orbitalPeriodSec = 5736.0

func presetNet(t *testing.T, name string) *Network {
	t.Helper()
	var c *constellation.Constellation
	var err error
	switch name {
	case "starlink":
		c, err = constellation.StarlinkPhase1(constellation.Config{})
	case "kuiper":
		c, err = constellation.Kuiper(constellation.Config{})
	default:
		t.Fatalf("unknown preset %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return New(c, diffGrounds)
}

func samePath(a, b Path) bool {
	// Bitwise latency equality and identical node sequences; NaN never
	// occurs (weights are finite sums).
	return a.OneWayMs == b.OneWayMs && reflect.DeepEqual(a.Nodes, b.Nodes)
}

func TestDifferentialFrozenVsLegacy(t *testing.T) {
	for _, preset := range []string{"starlink", "kuiper"} {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			n := presetNet(t, preset)
			const steps = 8
			for i := 0; i <= steps; i++ {
				tSec := orbitalPeriodSec * float64(i) / steps
				s := n.At(tSec)

				// Ground-side visibility: frozen CSR row vs linear scan,
				// at poles and dateline included.
				for gi := range diffGrounds {
					if got, want := s.VisibleSats(gi), s.legacyVisibleSats(gi); !reflect.DeepEqual(got, want) {
						t.Fatalf("t=%.0f VisibleSats(%d): frozen %d sats vs legacy %d", tSec, gi, len(got), len(want))
					}
				}

				// Point-to-point paths over every ground pair.
				for gi := range diffGrounds {
					for gj := range diffGrounds {
						src, dst := n.GroundNode(gi), n.GroundNode(gj)
						got, gotErr := s.ShortestPath(src, dst)
						want, wantErr := s.legacyShortestPath(src, dst)
						if !errors.Is(gotErr, wantErr) {
							t.Fatalf("t=%.0f path %d->%d: err %v vs legacy %v", tSec, gi, gj, gotErr, wantErr)
						}
						if gotErr == nil && !samePath(got, want) {
							t.Fatalf("t=%.0f path %d->%d: frozen %.17g %v vs legacy %.17g %v",
								tSec, gi, gj, got.OneWayMs, got.Nodes, want.OneWayMs, want.Nodes)
						}
					}
				}

				// Full SSSP per ground: every satellite distance bitwise.
				for gi := range diffGrounds {
					got := s.LatencyToAllSats(gi)
					want := s.legacyLatencyToAllSats(gi)
					for id := range want {
						if got[id] != want[id] && !(math.IsInf(got[id], 1) && math.IsInf(want[id], 1)) {
							t.Fatalf("t=%.0f sssp g%d sat %d: frozen %.17g vs legacy %.17g",
								tSec, gi, id, got[id], want[id])
						}
					}
				}

				// ISL-grid queries over a spread of satellite pairs.
				sats := n.Sats()
				for _, pair := range [][2]int{{0, sats - 1}, {1, sats / 2}, {sats / 3, 2 * sats / 3}, {7, 7}} {
					got, gotErr := ISLShortest(n.Grid, s.SatPositions(), pair[0], pair[1])
					want, wantErr := legacyISLShortest(n.Grid, s.SatPositions(), pair[0], pair[1])
					if !errors.Is(gotErr, wantErr) {
						t.Fatalf("t=%.0f isl %v: err %v vs legacy %v", tSec, pair, gotErr, wantErr)
					}
					if gotErr == nil && !samePath(got, want) {
						t.Fatalf("t=%.0f isl %v: frozen %.17g %v vs legacy %.17g %v",
							tSec, pair, got.OneWayMs, got.Nodes, want.OneWayMs, want.Nodes)
					}
				}
			}
		})
	}
}

// TestVisibleSatsPolesDateline is the toy-shell fast path of the visibility
// differential: frozen CSR ground rows must reproduce the linear Observer
// scan exactly where the geometry is nastiest.
func TestVisibleSatsPolesDateline(t *testing.T) {
	n := testNet(t, diffGrounds)
	for _, tSec := range []float64{0, 97, 1433, 2868, 4301, 5736} {
		s := n.At(tSec)
		for gi := range diffGrounds {
			got := s.VisibleSats(gi)
			want := s.legacyVisibleSats(gi)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("t=%.0f ground %d: frozen %v vs legacy %v", tSec, gi, got, want)
			}
		}
	}
}

func TestLatencyToAllSatsIsolatedGround(t *testing.T) {
	n := testNet(t, []geo.LatLon{{LatDeg: 89.5, LonDeg: 0}})
	s := n.At(0)
	if len(s.VisibleSats(0)) != 0 {
		t.Skip("pole unexpectedly covered — geometry changed")
	}
	for id, d := range s.LatencyToAllSats(0) {
		if !math.IsInf(d, 1) {
			t.Fatalf("isolated ground reaches sat %d at %v ms", id, d)
		}
	}
}

func TestGroundRTTNoPathErrors(t *testing.T) {
	n := testNet(t, []geo.LatLon{
		{LatDeg: 89.5, LonDeg: 0}, // isolated polar station
		{LatDeg: 0, LonDeg: 0},
	})
	s := n.At(0)
	if len(s.VisibleSats(0)) != 0 {
		t.Skip("pole unexpectedly covered — geometry changed")
	}
	if _, err := s.GroundToGroundRTTMs(0, 1); !errors.Is(err, ErrNoPath) {
		t.Fatalf("GroundToGroundRTTMs err = %v, want ErrNoPath", err)
	}
	if _, err := s.GroundToSatRTTMs(0, 3); !errors.Is(err, ErrNoPath) {
		t.Fatalf("GroundToSatRTTMs err = %v, want ErrNoPath", err)
	}
}

func TestLatencyToAllSatsInto(t *testing.T) {
	n := testNet(t, []geo.LatLon{{LatDeg: 10, LonDeg: 20}, {LatDeg: -5, LonDeg: 140}})
	s := n.At(42)
	want := s.LatencyToAllSats(0)
	buf := make([]float64, 0, n.Sats())
	got := s.LatencyToAllSatsInto(0, buf)
	if &got[0] != &buf[:1][0] {
		t.Fatal("Into did not reuse the provided buffer")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Into result differs from LatencyToAllSats")
	}
	// Undersized buffers grow transparently.
	if got := s.LatencyToAllSatsInto(1, make([]float64, 3)); len(got) != n.Sats() {
		t.Fatalf("grown result len = %d", len(got))
	}
}

func TestAllSourcesLatenciesMatchesSerial(t *testing.T) {
	n := testNet(t, diffGrounds)
	s := n.At(1234)
	gis := make([]int, len(diffGrounds))
	for i := range gis {
		gis[i] = i
	}
	par := s.AllSourcesLatencies(gis)
	if len(par) != len(gis) {
		t.Fatalf("rows = %d", len(par))
	}
	for i, gi := range gis {
		if want := s.LatencyToAllSats(gi); !reflect.DeepEqual(par[i], want) {
			t.Fatalf("row %d differs from serial", i)
		}
	}
	if got := s.AllSourcesLatencies(nil); len(got) != 0 {
		t.Fatalf("empty sources -> %d rows", len(got))
	}
}

func TestAllSourcesNodeLatenciesMatchesShortestPath(t *testing.T) {
	n := testNet(t, diffGrounds)
	s := n.At(987)
	srcs := []NodeID{n.GroundNode(4), n.GroundNode(5), n.SatNode(0)}
	rows := s.AllSourcesNodeLatencies(srcs)
	for i, src := range srcs {
		if len(rows[i]) != n.Nodes() {
			t.Fatalf("row %d len = %d", i, len(rows[i]))
		}
		for _, dst := range []NodeID{n.SatNode(3), n.GroundNode(4), n.GroundNode(0)} {
			p, err := s.ShortestPath(src, dst)
			if err != nil {
				if !math.IsInf(rows[i][dst], 1) {
					t.Fatalf("src %v dst %v: SSSP %v but ShortestPath says no path", src, dst, rows[i][dst])
				}
				continue
			}
			if rows[i][dst] != p.OneWayMs {
				t.Fatalf("src %v dst %v: SSSP %.17g vs path %.17g", src, dst, rows[i][dst], p.OneWayMs)
			}
		}
	}
}

// TestConcurrentQueriesSameSnapshot drives mixed queries from many
// goroutines against one snapshot, exercising the freeze sync.Once and the
// context pool under the race detector.
func TestConcurrentQueriesSameSnapshot(t *testing.T) {
	n := testNet(t, diffGrounds)
	s := n.At(300)
	wantPath, wantErr := s.legacyShortestPath(n.GroundNode(4), n.GroundNode(5))
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	done := make(chan error, 16)
	for w := 0; w < 16; w++ {
		w := w
		go func() {
			for i := 0; i < 20; i++ {
				switch (w + i) % 3 {
				case 0:
					p, err := s.ShortestPath(n.GroundNode(4), n.GroundNode(5))
					if err != nil || !samePath(p, wantPath) {
						done <- errors.New("path diverged under concurrency")
						return
					}
				case 1:
					s.LatencyToAllSats(4)
				default:
					s.VisibleSats(w % len(diffGrounds))
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 16; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFreezeEdgeCounts sanity-checks the CSR construction: symmetric edge
// budget (every uplink has a downlink), offsets monotone, rows sorted the
// way the legacy iteration order demands.
func TestFreezeEdgeCounts(t *testing.T) {
	n := testNet(t, diffGrounds)
	s := n.At(60)
	f := s.frozen()
	if f.nodes != n.Nodes() || f.sats != n.Sats() {
		t.Fatalf("frozen dims %d/%d", f.sats, f.nodes)
	}
	islEdges := 0
	for u := 0; u < n.Sats(); u++ {
		islEdges += len(n.Grid.Neighbors(u))
	}
	groundEdges := 0
	for gi := range diffGrounds {
		groundEdges += len(s.VisibleSats(gi))
	}
	if want := islEdges + 2*groundEdges; len(f.g.adj) != want {
		t.Fatalf("edge count %d, want %d (%d isl + 2x%d ground)", len(f.g.adj), want, islEdges, groundEdges)
	}
	for u := 0; u < f.nodes; u++ {
		if f.g.off[u] > f.g.off[u+1] {
			t.Fatalf("offsets not monotone at %d", u)
		}
	}
	// Ground rows ascend by satellite ID.
	for gi := range diffGrounds {
		adj, w := f.groundRow(gi)
		if len(adj) != len(w) {
			t.Fatalf("row %d: adj/w length mismatch", gi)
		}
		for i := 1; i < len(adj); i++ {
			if adj[i-1] >= adj[i] {
				t.Fatalf("ground row %d not ascending at %d", gi, i)
			}
		}
	}
}
