package serve

import (
	"math"
	"slices"
	"testing"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/visibility"
)

func starlink(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// manySites is past visibility.IndexMinGrounds, with sites on both poles
// and both sides of the dateline besides the cities.
func manySites() []Site {
	sites := SitesFromCities(visibility.IndexMinGrounds + 4)
	for _, ll := range []geo.LatLon{{LatDeg: 90}, {LatDeg: -89.9, LonDeg: 45}, {LatDeg: 0.5, LonDeg: 179.99}, {LatDeg: -5, LonDeg: -180}} {
		sites = append(sites, Site{Name: "edge", Loc: ll, ECEF: ll.ECEF(), Weight: 1e6})
	}
	return sites
}

// chaosInjector keeps about 96 % of the satellites down, so a site keeps a
// couple of its few dozen visible satellites as candidates, or none.
func chaosInjector(t testing.TB, c *constellation.Constellation) *faults.Injector {
	t.Helper()
	inj, err := faults.New(c.Size(), faults.Config{Seed: 9, SatMTBFHours: 0.01, SatMTTRSec: 900})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// checkLinear fails unless the engine's candidate lists and downOnly flags
// are the ones the linear scan builds from the same frame: the same IDs in
// the same order with the same OneWayMs and LifeSec bits. It leaves the
// engine's lists the linear scan's. It returns how many sites were downOnly.
func checkLinear(t *testing.T, e *Engine, label string) int {
	t.Helper()
	got := make([][]Candidate, len(e.cands))
	for si := range e.cands {
		got[si] = slices.Clone(e.cands[si])
	}
	gotDown := slices.Clone(e.downOnly)
	ix := e.ix
	e.ix = nil
	e.fillCands()
	e.ix = ix
	down := 0
	for si, want := range e.cands {
		if gotDown[si] != e.downOnly[si] {
			t.Fatalf("%s site %d: downOnly %v, linear scan %v", label, si, gotDown[si], e.downOnly[si])
		}
		if e.downOnly[si] {
			down++
		}
		if len(got[si]) != len(want) {
			t.Fatalf("%s site %d: %d candidates, linear scan %d", label, si, len(got[si]), len(want))
		}
		for i, w := range want {
			g := got[si][i]
			if g.SatID != w.SatID || math.Float64bits(g.OneWayMs) != math.Float64bits(w.OneWayMs) ||
				math.Float64bits(g.LifeSec) != math.Float64bits(w.LifeSec) {
				t.Fatalf("%s site %d candidate %d: %+v, linear scan %+v", label, si, i, g, w)
			}
		}
	}
	return down
}

// TestIndexedRefreshMatchesLinear: at every refresh of a half-hour run under
// chaos, for every policy, each site's candidate list and downOnly flag
// through the footprint index equal the linear scan's, over Starlink's five
// shells, the poles and the dateline. A site off the surface sends the
// engine to the linear scan.
func TestIndexedRefreshMatchesLinear(t *testing.T) {
	c := starlink(t)
	sites := manySites()
	horizon := 1800.0
	if testing.Short() {
		horizon = 300
	}
	reqs, err := Generate(sites, Workload{Seed: 3, RatePerSec: 100, ServiceMedianMs: 20, DiurnalAmplitude: 0.3}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	srv := compute.ServerSpec{Cores: 2, MemoryGB: 16, PowerCapFraction: 1}
	down := 0
	for _, p := range Policies() {
		e, err := NewEngine(c, Config{Sites: sites, Policy: p, Server: srv, QueueCap: 4, RefreshSec: 60, Faults: chaosInjector(t, c)})
		if err != nil {
			t.Fatal(err)
		}
		if e.ix == nil {
			t.Fatalf("%d surface sites not indexed", len(sites))
		}
		if err := e.Feed(reqs); err != nil {
			t.Fatal(err)
		}
		down += checkLinear(t, e, p.Name()+" t=0")
		for ts := 60.0; ts <= horizon; ts += 60 {
			if err := e.RunUntil(ts); err != nil {
				t.Fatal(err)
			}
			down += checkLinear(t, e, p.Name())
		}
		if r := e.Result(); r.Served == 0 || r.Shed[ShedSatDown] == 0 {
			t.Fatalf("%s: served %d, %d shed sat_down: the run exercised too little", p.Name(), r.Served, r.Shed[ShedSatDown])
		}
	}
	if down == 0 {
		t.Fatal("no refresh had a site whose visible satellites were all down")
	}

	elevated := manySites()
	elevated[3].Loc.AltKm = 2.5
	e, err := NewEngine(c, Config{Sites: elevated, Policy: Nearest(), Faults: chaosInjector(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	if e.ix != nil {
		t.Fatal("a site off the surface must send the engine to the linear scan")
	}
	checkLinear(t, e, "elevated")
	few, err := NewEngine(c, Config{Sites: sites[:visibility.IndexMinGrounds-1], Policy: Nearest()})
	if err != nil {
		t.Fatal(err)
	}
	if few.ix != nil {
		t.Fatalf("%d sites indexed, crossover is %d", visibility.IndexMinGrounds-1, visibility.IndexMinGrounds)
	}
}

// TestIndexedEngineMatchesLegacy is TestShardedMatchesLegacy past the
// crossover: with the footprint index in the refresh, every policy's
// results under chaos equal the legacy oracle's.
func TestIndexedEngineMatchesLegacy(t *testing.T) {
	c := starlink(t)
	sites := manySites()
	reqs, err := Generate(sites, Workload{Seed: 4, RatePerSec: 150, ServiceMedianMs: 20, DiurnalAmplitude: 0.3}, 240)
	if err != nil {
		t.Fatal(err)
	}
	srv := compute.ServerSpec{Cores: 2, MemoryGB: 16, PowerCapFraction: 1}
	for _, p := range Policies() {
		cfg := func() Config {
			return Config{Sites: sites, Policy: p, Server: srv, QueueCap: 4, RefreshSec: 30, Faults: chaosInjector(t, c)}
		}
		oracle := renderResult(runLegacyOracle(t, c, cfg(), reqs, 270))
		if got := renderResult(runShardedSteps(t, c, cfg(), reqs, 270, 20)); got != oracle {
			t.Errorf("%s diverged from legacy:\n got: %s\nwant: %s", p.Name(), got, oracle)
		}
	}
}

// refreshWork counts the engine's last refresh: the site–satellite compares
// it made and the candidates it kept.
func refreshWork(e *Engine) (tested, kept int) {
	for _, cs := range e.cands {
		kept += len(cs)
	}
	if e.ix == nil {
		return len(e.grounds) * e.nsats, kept
	}
	shells := len(e.boxes) / len(e.grounds)
	for i, box := range e.boxes {
		for _, b := range e.ix.Halves(box) {
			for r := b.RowLo; r <= b.RowHi; r++ {
				lo, hi := e.ix.RowSpan(i%shells, b, r)
				tested += int(hi - lo)
			}
		}
	}
	return tested, kept
}

// BenchmarkServeRefresh times the engine's refresh alone — Starlink, the 40
// most populous cities, 60 one-minute refreshes, the ring advanced outside
// the timer — and counts its work: tested/refresh is the site–satellite
// compares (40 × 4,409 = 176,360 when every satellite is tested) and
// cands/refresh the candidates kept. CI holds both counts to the committed
// record.
func BenchmarkServeRefresh(b *testing.B) {
	c := starlink(b)
	sites := SitesFromCities(40)
	const refreshes, step = 60, 60.0
	var tested, kept int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := NewEngine(c, Config{Sites: sites, Policy: Nearest(), RefreshSec: step})
		if err != nil {
			b.Fatal(err)
		}
		tested, kept = 0, 0
		for k := 1; k <= refreshes; k++ {
			e.ring.Advance(float64(k) * step)
			b.StartTimer()
			e.refresh(float64(k) * step)
			b.StopTimer()
			n, m := refreshWork(e)
			tested += n
			kept += m
		}
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*refreshes), "ns/refresh")
	b.ReportMetric(float64(tested)/refreshes, "tested/refresh")
	b.ReportMetric(float64(kept)/refreshes, "cands/refresh")
}
