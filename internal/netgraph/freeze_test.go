package netgraph

// Differential tests for the freeze over the footprint index: past
// visibility.IndexMinGrounds the network's Surface scans each snapshot
// through the index, and the CSR it freezes must be byte-identical to one
// assembled from the linear scan at every instant — including the
// mask-crossing churn the poles and dateline stations in diffGrounds provoke.
// Every input the index does not cover must freeze to the same linear graph,
// never to a wrong one. Which scan the Surface picks is pinned in
// visibility's own tests; these pin what the freeze makes of its rows.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/visibility"
)

// sameCSR asserts byte identity of two frozen graphs: offsets and adjacency
// by integer equality, weights by exact bit pattern.
func sameCSR(t *testing.T, label string, got, want *frozen) {
	t.Helper()
	if got.sats != want.sats || got.nodes != want.nodes {
		t.Fatalf("%s: dims %d/%d vs %d/%d", label, got.sats, got.nodes, want.sats, want.nodes)
	}
	if len(got.g.off) != len(want.g.off) || len(got.g.adj) != len(want.g.adj) || len(got.g.w) != len(want.g.w) {
		t.Fatalf("%s: lengths off %d/%d adj %d/%d w %d/%d", label,
			len(got.g.off), len(want.g.off), len(got.g.adj), len(want.g.adj), len(got.g.w), len(want.g.w))
	}
	for i := range got.g.off {
		if got.g.off[i] != want.g.off[i] {
			t.Fatalf("%s: off[%d] = %d, want %d", label, i, got.g.off[i], want.g.off[i])
		}
	}
	for i := range got.g.adj {
		if got.g.adj[i] != want.g.adj[i] {
			t.Fatalf("%s: adj[%d] = %d, want %d", label, i, got.g.adj[i], want.g.adj[i])
		}
	}
	for i := range got.g.w {
		if math.Float64bits(got.g.w[i]) != math.Float64bits(want.g.w[i]) {
			t.Fatalf("%s: w[%d] = %.17g (bits %x), want %.17g (bits %x)", label, i,
				got.g.w[i], math.Float64bits(got.g.w[i]), want.g.w[i], math.Float64bits(want.g.w[i]))
		}
	}
}

// linearFrozen is the oracle: the CSR assembled from every (ground,
// satellite) pair tested through the network's Observer.
func linearFrozen(s *Snapshot) *frozen {
	rows := make([][]int32, len(s.net.Grounds))
	for gi, g := range s.net.groundECEF {
		for id, p := range s.satPos {
			if s.net.Observer.Visible(g, id, p) {
				rows[gi] = append(rows[gi], int32(id))
			}
		}
	}
	return assembleCSR(s, rows)
}

// freezeVsLinear freezes s through the network's Surface and pins it to the
// linear scan.
func freezeVsLinear(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	sameCSR(t, label, s.frozen(), linearFrozen(s))
}

// manyGrounds is diffGrounds padded past visibility.IndexMinGrounds, so the
// network's Surface takes the indexed scan when the input allows it.
func manyGrounds() []geo.LatLon {
	gs := append([]geo.LatLon(nil), diffGrounds...)
	for lon := -180.0; len(gs) < visibility.IndexMinGrounds+6; lon += 17 {
		gs = append(gs, geo.LatLon{LatDeg: lon / 3, LonDeg: lon})
	}
	return gs
}

// TestIndexFreezeMatchesLinearScan sweeps the three presets — Telesat for
// its polar shell and 10° mask — over one orbital period a minute apart and
// over 24 minutes at the 2 s hand-off cadence, through one network's Surface.
func TestIndexFreezeMatchesLinearScan(t *testing.T) {
	presets := map[string]func(constellation.Config) (*constellation.Constellation, error){
		"starlink": constellation.StarlinkPhase1, "kuiper": constellation.Kuiper, "telesat": constellation.Telesat,
	}
	for name, build := range presets {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := build(constellation.Config{})
			if err != nil {
				t.Fatal(err)
			}
			n := New(c, manyGrounds())
			fine := 720
			if testing.Short() {
				fine = 60
			}
			for i := 0; 60*float64(i) <= orbitalPeriodSec; i++ {
				tSec := 60 * float64(i)
				freezeVsLinear(t, fmt.Sprintf("%s t=%g", name, tSec), n.At(tSec))
			}
			for i := 0; i < fine; i++ {
				tSec := 1801 + 2*float64(i)
				freezeVsLinear(t, fmt.Sprintf("%s t=%g", name, tSec), n.At(tSec))
			}
		})
	}
}

// TestIndexFreezeFallbacks: each input the index does not cover must freeze
// to the linear scan's graph through the public path.
func TestIndexFreezeFallbacks(t *testing.T) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("below the crossover", func(t *testing.T) {
		for _, gs := range [][]geo.LatLon{diffGrounds, manyGrounds()} {
			freezeVsLinear(t, fmt.Sprintf("%d grounds", len(gs)), New(c, gs).At(300))
		}
	})

	t.Run("elevated ground", func(t *testing.T) {
		gs := manyGrounds()
		gs[7].AltKm = 2.5
		freezeVsLinear(t, "elevated", New(c, gs).At(300))
	})

	t.Run("mask override", func(t *testing.T) {
		n := New(c, manyGrounds())
		n.Observer = visibility.NewObserverWithMask(c, 40)
		s := n.At(300)
		freezeVsLinear(t, "mask 40", s)
		if tight, wide := len(s.frozen().g.adj), len(New(c, manyGrounds()).At(300).frozen().g.adj); tight >= wide {
			t.Fatalf("40° mask froze %d edges, shell masks %d: override not applied", tight, wide)
		}
	})

	t.Run("satellite below its shell", func(t *testing.T) {
		n := New(c, manyGrounds())
		at := n.At(300)
		pos := append([]geo.Vec3(nil), at.satPos...)
		// Over New York and 50 km low: visible from further out than the boxes
		// assume.
		id := at.VisibleSats(4)[0]
		pos[id] = pos[id].Scale(1 - 50/pos[id].Norm())
		s := &Snapshot{net: n, satPos: pos}
		freezeVsLinear(t, "displaced", s)
		if row, _ := s.frozen().groundRow(4); !slices.Contains(row, int32(id)) {
			t.Fatalf("New York's row %v lost the lowered satellite %d: the case tests nothing", row, id)
		}
	})
}

// TestCheckEdgeBudget pins the int32 CSR offset guard at the boundary.
func TestCheckEdgeBudget(t *testing.T) {
	checkEdgeBudget(0)
	checkEdgeBudget(math.MaxInt32) // largest representable: must not panic

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("checkEdgeBudget(MaxInt32+1) did not panic")
		}
		err, ok := r.(*ErrGraphTooLarge)
		if !ok {
			t.Fatalf("panic value %T, want *ErrGraphTooLarge", r)
		}
		if err.Edges != math.MaxInt32+1 {
			t.Fatalf("Edges = %d", err.Edges)
		}
		if err.Error() == "" {
			t.Fatal("empty error message")
		}
	}()
	checkEdgeBudget(math.MaxInt32 + 1)
}
