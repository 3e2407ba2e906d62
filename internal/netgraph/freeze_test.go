package netgraph

// Differential tests for the indexed visibility scan: a freeze through the
// footprint index must produce CSR arrays byte-identical to the linear scan
// at every instant — including the mask-crossing churn the poles and
// dateline stations in diffGrounds provoke — and every input the index does
// not cover must degrade to the linear scan, never to a wrong graph.

import (
	"fmt"
	"math"
	"math/rand"
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

// indexVsLinear freezes s through the footprint index and pins it to the
// linear scan.
func indexVsLinear(t *testing.T, label string, s *Snapshot, fp *footprint) {
	t.Helper()
	got := indexFrozen(s, fp)
	if got == nil {
		t.Fatalf("%s: snapshot not indexed", label)
	}
	sameCSR(t, label, got, buildFrozen(s))
}

// TestIndexFreezeMatchesLinearScan sweeps the three presets — Telesat for
// its polar shell and 10° mask — over one orbital period a minute apart and
// over 24 minutes at the 2 s hand-off cadence, through one pooled index.
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
			n := New(c, diffGrounds)
			fp := newFootprint(n)
			if fp == nil {
				t.Fatal("preset over surface grounds not indexed")
			}
			fine := 720
			if testing.Short() {
				fine = 60
			}
			for i := 0; 60*float64(i) <= orbitalPeriodSec; i++ {
				tSec := 60 * float64(i)
				indexVsLinear(t, fmt.Sprintf("%s t=%g", name, tSec), n.At(tSec), fp)
			}
			for i := 0; i < fine; i++ {
				tSec := 1801 + 2*float64(i)
				indexVsLinear(t, fmt.Sprintf("%s t=%g", name, tSec), n.At(tSec), fp)
			}
		})
	}
}

// manyGrounds is diffGrounds padded past visibility.IndexMinGrounds, so
// frozen() takes the indexed scan when the network allows it.
func manyGrounds() []geo.LatLon {
	gs := append([]geo.LatLon(nil), diffGrounds...)
	for lon := -180.0; len(gs) < visibility.IndexMinGrounds+6; lon += 17 {
		gs = append(gs, geo.LatLon{LatDeg: lon / 3, LonDeg: lon})
	}
	return gs
}

// TestIndexFreezeFallbacks: each input the index does not cover must freeze
// to the linear scan's graph through the public path.
func TestIndexFreezeFallbacks(t *testing.T) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("below the crossover", func(t *testing.T) {
		if n := New(c, diffGrounds); n.footprint() != nil {
			t.Fatalf("%d grounds indexed, crossover is %d", len(diffGrounds), visibility.IndexMinGrounds)
		}
		if New(c, manyGrounds()).footprint() == nil {
			t.Fatal("a ground set past the crossover is not indexed")
		}
	})

	t.Run("elevated ground", func(t *testing.T) {
		gs := manyGrounds()
		gs[7].AltKm = 2.5
		n := New(c, gs)
		if n.footprint() != nil {
			t.Fatal("a ground off the surface must not be indexed")
		}
		s := n.At(300)
		sameCSR(t, "elevated", s.frozen(), buildFrozen(s))
	})

	t.Run("mask override", func(t *testing.T) {
		n := New(c, manyGrounds())
		n.Observer = visibility.NewObserverWithMask(c, 40)
		fp := n.footprint()
		if fp == nil {
			t.Fatal("a mask-overridden observer has one limit per shell and must be indexed")
		}
		s := n.At(300)
		indexVsLinear(t, "mask 40", s, fp)
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
		if indexFrozen(s, n.footprint()) != nil {
			t.Fatal("a satellite 50 km below its shell was indexed")
		}
		sameCSR(t, "displaced", s.frozen(), buildFrozen(s))
		if got := indexFrozen(&Snapshot{net: n, satPos: pos[:10]}, n.footprint()); got != nil {
			t.Fatal("a short snapshot was indexed")
		}
	})
}

// FuzzFreezeMatchesLinearScan pins the indexed scan to the linear one over
// random Walker constellations, ground sets and cadences: shells of mixed
// altitude, inclination and mask, grounds anywhere including the poles and
// the dateline, a run of instants any step apart.
func FuzzFreezeMatchesLinearScan(f *testing.F) {
	f.Add(int64(1), uint8(6), 0.0, 2.0)
	f.Add(int64(2), uint8(40), 5000.0, 60.0)
	f.Add(int64(3), uint8(1), 86399.0, 0.0)
	f.Add(int64(4), uint8(200), 12.5, 1800.0)
	f.Fuzz(func(t *testing.T, seed int64, nGrounds uint8, t0, stepSec float64) {
		if !(t0 >= 0 && t0 <= 2*86400) || !(stepSec >= 0 && stepSec <= 7200) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		shells := make([]constellation.Shell, 1+rng.Intn(3))
		for i := range shells {
			shells[i] = constellation.Shell{
				Name: "s", AltitudeKm: 300 + rng.Float64()*1500, InclinationDeg: 30 + rng.Float64()*70,
				Planes: 3 + rng.Intn(20), SatsPerPlane: 3 + rng.Intn(24),
				MinElevationDeg: 5 + rng.Float64()*40,
			}
			shells[i].PhaseFactor = rng.Intn(shells[i].Planes)
		}
		c, err := constellation.Build("fuzz", shells, constellation.Config{})
		if err != nil {
			t.Fatal(err)
		}
		grounds := []geo.LatLon{{LatDeg: 90}, {LatDeg: -90, LonDeg: 77}, {LonDeg: 180}, {LatDeg: 3, LonDeg: -180}}
		for len(grounds) < 1+int(nGrounds) {
			grounds = append(grounds, geo.LatLon{LatDeg: 180*rng.Float64() - 90, LonDeg: 360*rng.Float64() - 180})
		}
		n := New(c, grounds[:1+int(nGrounds)])
		// The ISL CSR cache keys on the grid and never evicts.
		defer islCSRCache.Delete(n.Grid)
		fp := newFootprint(n)
		if fp == nil {
			t.Fatal("Walker shells over surface grounds not indexed")
		}
		for i := 0; i < 4; i++ {
			tSec := t0 + float64(i)*stepSec
			indexVsLinear(t, fmt.Sprintf("t=%g", tSec), n.At(tSec), fp)
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
