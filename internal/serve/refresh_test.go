package serve

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/units"
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
// are the ones a test of every satellite builds from the same frame: the
// same IDs in the same order with the same OneWayMs and LifeSec bits. It
// returns how many sites were downOnly.
func checkLinear(t *testing.T, e *Engine, obs *visibility.Observer, label string) int {
	t.Helper()
	now, inj, down := e.ring.Frame(0), e.cfg.Faults, 0
	for si, g := range e.grounds {
		var want []Candidate
		visible := false
		for id, p := range now {
			if !obs.Visible(g, id, p) {
				continue
			}
			visible = true
			if inj != nil && !inj.SatUp(id) {
				continue
			}
			life := 0.0
			for n := e.ring.Life(e.grounds[si:si+1], id); n > 0; n-- {
				life += e.cfg.RefreshSec
			}
			want = append(want, Candidate{SatID: id, OneWayMs: units.PropagationDelayMs(g.Distance(p)), LifeSec: life})
		}
		slices.SortStableFunc(want, func(a, b Candidate) int { return cmp.Compare(a.OneWayMs, b.OneWayMs) })
		if e.downOnly[si] != (len(want) == 0 && visible) {
			t.Fatalf("%s site %d: downOnly %v, linear scan %v", label, si, e.downOnly[si], !e.downOnly[si])
		}
		if e.downOnly[si] {
			down++
		}
		got := e.cands[si]
		if len(got) != len(want) {
			t.Fatalf("%s site %d: %d candidates, linear scan %d", label, si, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
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
// through the footprint index equal a test of every satellite, over
// Starlink's five shells, the poles and the dateline. (Surface's own tests
// in internal/visibility cover the inputs that send it to the linear scan.)
func TestIndexedRefreshMatchesLinear(t *testing.T) {
	c := starlink(t)
	obs := visibility.NewObserver(c)
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
		if !e.surf.Indexed() {
			t.Fatalf("%d surface sites not indexed", len(sites))
		}
		if err := e.Feed(reqs); err != nil {
			t.Fatal(err)
		}
		down += checkLinear(t, e, obs, p.Name()+" t=0")
		for ts := 60.0; ts <= horizon; ts += 60 {
			if err := e.RunUntil(ts); err != nil {
				t.Fatal(err)
			}
			down += checkLinear(t, e, obs, p.Name())
		}
		if r := e.Result(); r.Served == 0 || r.Shed[ShedSatDown] == 0 {
			t.Fatalf("%s: served %d, %d shed sat_down: the run exercised too little", p.Name(), r.Served, r.Shed[ShedSatDown])
		}
	}
	if down == 0 {
		t.Fatal("no refresh had a site whose visible satellites were all down")
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
// its Surface made and the candidates it kept. A linear Surface tests every
// pair; an indexed one the satellites inside each site's cell boxes, counted
// on ix rebuilt from the same frame, which the engine's index accepts iff ix
// does.
func refreshWork(b *testing.B, e *Engine, ix *visibility.Index) (tested, kept int) {
	for _, cs := range e.cands {
		kept += len(cs)
	}
	if !e.surf.Indexed() {
		return len(e.grounds) * e.nsats, kept
	}
	if err := ix.Rebuild(e.ring.Frame(0)); err != nil {
		b.Fatal(err)
	}
	for _, g := range e.grounds {
		for si, box := range ix.Window([]geo.Vec3{g}) {
			for _, b := range ix.Halves(box) {
				for r := b.RowLo; r <= b.RowHi; r++ {
					lo, hi := ix.RowSpan(si, b, r)
					tested += int(hi - lo)
				}
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
	ix, err := visibility.NewIndex(visibility.NewObserver(c), 0)
	if err != nil {
		b.Fatal(err)
	}
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
			n, m := refreshWork(b, e, ix)
			tested += n
			kept += m
		}
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*refreshes), "ns/refresh")
	b.ReportMetric(float64(tested)/refreshes, "tested/refresh")
	b.ReportMetric(float64(kept)/refreshes, "cands/refresh")
}
