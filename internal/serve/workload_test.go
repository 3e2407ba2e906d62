package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
)

func twoSites() []Site {
	return []Site{
		{Name: "a", Loc: geo.LatLon{LatDeg: 9.06, LonDeg: 7.49}, Weight: 3},
		{Name: "b", Loc: geo.LatLon{LatDeg: -23.53, LonDeg: -46.63}, Weight: 1},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := Workload{Seed: 42, RatePerSec: 50, ServiceMedianMs: 10, DiurnalAmplitude: 0.5}
	a, err := Generate(twoSites(), w, 600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(twoSites(), w, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	w.Seed = 43
	c, err := Generate(twoSites(), w, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) && len(a) > 0 && c[0] == a[0] {
		t.Fatal("different seeds produced the same trace")
	}
}

func TestGenerateRateAndOrdering(t *testing.T) {
	w := Workload{Seed: 7, RatePerSec: 100, ServiceMedianMs: 5}
	reqs, err := Generate(twoSites(), w, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0 * 300
	if f := float64(len(reqs)); f < want*0.9 || f > want*1.1 {
		t.Fatalf("generated %d requests, want ~%v", len(reqs), want)
	}
	counts := map[int]int{}
	for i, r := range reqs {
		if i > 0 && reqs[i-1].TSec > r.TSec {
			t.Fatalf("trace out of order at %d", i)
		}
		if r.ServiceMs <= 0 {
			t.Fatalf("non-positive service time %v", r.ServiceMs)
		}
		counts[r.Site]++
	}
	// Weight 3:1 split.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("site split ratio %v, want ~3", ratio)
	}
}

func TestGenerateDiurnalModulation(t *testing.T) {
	site := []Site{{Name: "gw", Loc: geo.LatLon{LatDeg: 0, LonDeg: 0}, Weight: 1}}
	w := Workload{Seed: 11, RatePerSec: 20, ServiceMedianMs: 5, DiurnalAmplitude: 0.9, PeakLocalHour: 12}
	reqs, err := Generate(site, w, 86400)
	if err != nil {
		t.Fatal(err)
	}
	var peak, trough int
	for _, r := range reqs {
		h := localHour(r.TSec, 0)
		switch {
		case h >= 9 && h < 15: // around the 12:00 peak
			peak++
		case h >= 21 || h < 3: // around the 00:00 trough
			trough++
		}
	}
	if peak < 5*trough {
		t.Fatalf("diurnal peak %d not well above trough %d", peak, trough)
	}
}

func TestGenerateHeavyTailService(t *testing.T) {
	site := []Site{{Name: "gw", Loc: geo.LatLon{}, Weight: 1}}
	w := Workload{Seed: 3, RatePerSec: 100, ServiceMedianMs: 10, ServiceSigma: 1.0}
	reqs, err := Generate(site, w, 300)
	if err != nil {
		t.Fatal(err)
	}
	var over, under int
	maxMs := 0.0
	for _, r := range reqs {
		if r.ServiceMs > 10 {
			over++
		} else {
			under++
		}
		maxMs = math.Max(maxMs, r.ServiceMs)
	}
	// Median at 10 ms: the two halves are balanced, and sigma=1 lognormal
	// produces multi-x outliers.
	if b := float64(over) / float64(over+under); b < 0.4 || b > 0.6 {
		t.Fatalf("median split %v, want ~0.5", b)
	}
	if maxMs < 30 {
		t.Fatalf("no heavy tail: max service %v ms", maxMs)
	}
}

func TestGenerateValidation(t *testing.T) {
	sites := twoSites()
	good := Workload{Seed: 1, RatePerSec: 10, ServiceMedianMs: 5}
	cases := []struct {
		name string
		w    Workload
		s    []Site
		h    float64
	}{
		{"zero rate", Workload{ServiceMedianMs: 5}, sites, 10},
		{"zero median", Workload{RatePerSec: 1}, sites, 10},
		{"negative sigma", Workload{RatePerSec: 1, ServiceMedianMs: 5, ServiceSigma: -1}, sites, 10},
		{"amplitude 1", Workload{RatePerSec: 1, ServiceMedianMs: 5, DiurnalAmplitude: 1}, sites, 10},
		{"no sites", good, nil, 10},
		{"zero horizon", good, sites, 0},
		{"negative weight", good, []Site{{Weight: -1}}, 10},
		{"all zero weights", good, []Site{{Weight: 0}, {Weight: 0}}, 10},
	}
	for _, c := range cases {
		if _, err := Generate(c.s, c.w, c.h); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
	if _, err := Generate(sites, good, 10); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
}

func TestSitesFromCities(t *testing.T) {
	sites := SitesFromCities(10)
	if len(sites) != 10 {
		t.Fatalf("got %d sites", len(sites))
	}
	for i, s := range sites {
		if s.Name == "" || s.Weight <= 0 {
			t.Fatalf("site %d malformed: %+v", i, s)
		}
		if !s.Loc.Valid() {
			t.Fatalf("site %d location invalid: %+v", i, s.Loc)
		}
	}
	// Population-ordered list: first site outweighs the last.
	if sites[0].Weight <= sites[9].Weight {
		t.Fatalf("weights not population-ordered: %v vs %v", sites[0].Weight, sites[9].Weight)
	}
}

// generateSorted is the generator this package shipped before the k-way
// merge — every site's stream appended in turn, then one sort on
// (TSec, Site) — kept as the oracle Generate must equal bit for bit.
func generateSorted(sites []Site, w Workload, horizonSec float64) []Request {
	w = w.withDefaults()
	totalW := 0.0
	for _, s := range sites {
		totalW += s.Weight
	}
	var out []Request
	for si, s := range sites {
		rate := w.RatePerSec * s.Weight / totalW
		if rate == 0 {
			continue
		}
		r := rand.New(rand.NewSource(w.Seed*1_000_003 + int64(si)))
		peak := rate * (1 + w.DiurnalAmplitude)
		sigma := w.ServiceSigma
		for t := 0.0; ; {
			t += r.ExpFloat64() / peak
			if t >= horizonSec {
				break
			}
			keep := diurnalFactor(t, s.Loc.LonDeg, w.DiurnalAmplitude, w.PeakLocalHour) / (1 + w.DiurnalAmplitude)
			if r.Float64() >= keep {
				continue
			}
			out = append(out, Request{
				TSec:      t,
				Site:      si,
				ServiceMs: w.ServiceMedianMs * math.Exp(r.NormFloat64()*sigma),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TSec != out[j].TSec {
			return out[i].TSec < out[j].TSec
		}
		return out[i].Site < out[j].Site
	})
	return out
}

func sameTrace(t *testing.T, what string, got, want []Request) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d requests, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: request %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestGenerateMatchesSortOracle: the merged generator reproduces the
// append-then-sort trace exactly — one drained slice, the source pulled in
// one run, in single requests, and from a capacity hint that is far too
// small — across site counts (one with a zero-weight site), diurnal
// amplitudes and horizons down to one where most sites emit nothing.
func TestGenerateMatchesSortOracle(t *testing.T) {
	sawSilentSite := false
	for _, nsites := range []int{1, 12, 40} {
		sites := SitesFromCities(nsites)
		if nsites == 12 {
			sites[3].Weight = 0
		}
		for _, amp := range []float64{0, 0.3, 0.6, 0.95} {
			for _, horizon := range []float64{1, 120, 3600} {
				for seed := int64(1); seed <= 3; seed++ {
					w := Workload{Seed: seed, RatePerSec: 15, ServiceMedianMs: 20, DiurnalAmplitude: amp}
					what := fmt.Sprintf("sites=%d amp=%g horizon=%g seed=%d", nsites, amp, horizon, seed)
					want := generateSorted(sites, w, horizon)
					got, err := Generate(sites, w, horizon)
					if err != nil {
						t.Fatal(err)
					}
					sameTrace(t, what, got, want)

					emitted := map[int]bool{}
					for _, r := range want {
						emitted[r.Site] = true
					}
					if nsites == 40 && len(emitted) > 0 && len(emitted) < nsites {
						sawSilentSite = true
					}
					if emitted[3] && nsites == 12 {
						t.Fatalf("%s: the zero-weight site emitted", what)
					}
					if seed > 1 {
						continue // the pull shapes need one seed per cell
					}
					for _, runLen := range []int{1, len(want) + 1} {
						g, err := NewGenerator(sites, w, horizon)
						if err != nil {
							t.Fatal(err)
						}
						g.run = make([]Request, runLen)
						var pulled []Request
						for run := g.Next(); len(run) > 0; run = g.Next() {
							pulled = append(pulled, run...)
						}
						sameTrace(t, fmt.Sprintf("%s pulled %d at a time", what, runLen), pulled, want)
					}
					g, err := NewGenerator(sites, w, horizon)
					if err != nil {
						t.Fatal(err)
					}
					if hint := g.sizeHint(); hint < len(want) {
						t.Fatalf("%s: size hint %d below the %d requests drawn", what, hint, len(want))
					}
					sameTrace(t, what+" from a short capacity hint", g.drain(1), want)
				}
			}
		}
	}
	if !sawSilentSite {
		t.Fatal("no cell had a site that emitted nothing; shorten the horizon")
	}
}

// TestGenerateSizeHint: the presize holds the trace without regrowth and
// without gross over-reservation at the benchmark's shape.
func TestGenerateSizeHint(t *testing.T) {
	sites := SitesFromCities(40)
	w := Workload{Seed: 1, RatePerSec: 350, ServiceMedianMs: 20, DiurnalAmplitude: 0.6}
	reqs, err := Generate(sites, w, 600)
	if err != nil {
		t.Fatal(err)
	}
	if cap(reqs) < len(reqs) || float64(cap(reqs)) > 1.05*float64(len(reqs)) {
		t.Fatalf("trace of %d requests sits in capacity %d", len(reqs), cap(reqs))
	}
	g, _ := NewGenerator(sites, w, 600)
	if cap(reqs) != g.sizeHint() {
		t.Fatalf("capacity %d is not the size hint %d: the slice regrew", cap(reqs), g.sizeHint())
	}
}
