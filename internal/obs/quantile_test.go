package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exactQuantile is the sorted-sample reference the sketch is judged against.
func exactQuantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// checkAccuracy feeds samples into a sketch and requires every exported
// quantile to land within the documented relative error (sqrt(gamma)-1 ≈ 1%
// per bucket boundary; 2.5% leaves margin for rank granularity).
func checkAccuracy(t *testing.T, name string, samples []float64) {
	t.Helper()
	q := &Quantile{}
	for _, v := range samples {
		q.Observe(v)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := q.Quantiles(p)[0]
		want := exactQuantile(sorted, p)
		if want == 0 {
			continue
		}
		if rel := math.Abs(got-want) / math.Abs(want); rel > 0.025 {
			t.Errorf("%s p%g: got %g, exact %g (rel err %.3f > 0.025)", name, 100*p, got, want, rel)
		}
	}
	if q.Count() != uint64(len(samples)) {
		t.Errorf("%s count = %d, want %d", name, q.Count(), len(samples))
	}
}

func TestQuantileAccuracyUniform(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = 1 + 99*r.Float64() // uniform on [1, 100)
	}
	checkAccuracy(t, "uniform", samples)
}

func TestQuantileAccuracyExponential(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = r.ExpFloat64() * 10 // heavy right tail
	}
	checkAccuracy(t, "exponential", samples)
}

func TestQuantileAccuracyBimodal(t *testing.T) {
	// Fast path vs slow path: two well-separated modes, the shape where
	// fixed histogram buckets lose the p99 entirely.
	r := rand.New(rand.NewSource(3))
	samples := make([]float64, 50000)
	for i := range samples {
		if r.Float64() < 0.9 {
			samples[i] = 0.5 + 0.1*r.Float64()
		} else {
			samples[i] = 200 + 50*r.Float64()
		}
	}
	checkAccuracy(t, "bimodal", samples)
}

func TestQuantileEdgeCases(t *testing.T) {
	q := &Quantile{}
	if got := q.Quantiles(0.5)[0]; got != 0 {
		t.Errorf("empty sketch p50 = %g, want 0", got)
	}
	q.Observe(42)
	for _, p := range []float64{0, 0.5, 1} {
		if got := q.Quantiles(p)[0]; got != 42 {
			t.Errorf("single-sample p%g = %g, want 42 (clamped to [min,max])", 100*p, got)
		}
	}
	q.Observe(-5) // non-positive lands in the underflow bucket
	q.Observe(0)
	if q.Count() != 3 {
		t.Errorf("count = %d, want 3", q.Count())
	}
	if got := q.Min(); got != -5 {
		t.Errorf("min = %g, want -5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Quantiles(1.5) did not panic")
		}
	}()
	q.Quantiles(1.5)
}

// TestQuantileObserveInf: +Inf lands in the last bucket instead of
// converting Log(+Inf) to an int, and reads back as the maximum.
func TestQuantileObserveInf(t *testing.T) {
	q := &Quantile{}
	q.Observe(3)
	q.Observe(math.Inf(1))
	q.Observe(math.MaxFloat64)
	if got := q.counts[quantileBuckets-1].Load(); got != 2 {
		t.Errorf("last bucket holds %d, want 2 (+Inf and MaxFloat64)", got)
	}
	if q.Count() != 3 || !math.IsInf(q.Max(), 1) || !math.IsInf(q.Sum(), 1) || q.Min() != 3 {
		t.Errorf("count %d min %g max %g sum %g, want 3, 3, +Inf, +Inf", q.Count(), q.Min(), q.Max(), q.Sum())
	}
	if got := q.Quantiles(1)[0]; got != quantileTop {
		t.Errorf("p100 = %g, want the last bucket's value %g", got, quantileTop)
	}
	// The clamp moves no finite value: at and just below the last bucket's
	// value the Log path agrees with it.
	for _, v := range []float64{quantileTop, math.Nextafter(quantileTop, 0), quantileTop * 2} {
		if got, want := quantileIndex(v), 1+int(math.Log(v/quantileMinValue)*invLogQuantileGamma); min(want, quantileBuckets-1) != got {
			t.Errorf("quantileIndex(%g) = %d, Log path %d", v, got, want)
		}
	}
}

// TestQuantileDropsNaN: a NaN is not an observation — it poisons neither
// the sum nor the extremes, as stats.CDF.Add drops it.
func TestQuantileDropsNaN(t *testing.T) {
	for _, batch := range []bool{false, true} {
		q := &Quantile{}
		vs := []float64{math.NaN(), 5, math.NaN(), 7}
		if batch {
			q.ObserveAll(vs)
		} else {
			for _, v := range vs {
				q.Observe(v)
			}
		}
		if q.Count() != 2 || q.Min() != 5 || q.Max() != 7 || q.Sum() != 12 {
			t.Errorf("batch=%v: count %d min %g max %g sum %g, want 2, 5, 7, 12",
				batch, q.Count(), q.Min(), q.Max(), q.Sum())
		}
	}
}

// sketchState is every recorded bit of a sketch.
type sketchState struct {
	counts             [quantileBuckets]uint64
	count, sum, lo, hi uint64
	hasMM              uint32
}

func stateOf(q *Quantile) sketchState {
	s := sketchState{count: q.count.Load(), sum: q.sumBits.Load(), lo: q.minBits.Load(), hi: q.maxBits.Load(), hasMM: q.hasMM.Load()}
	for i := range s.counts {
		s.counts[i] = q.counts[i].Load()
	}
	return s
}

// TestObserveAllMatchesObserveLoop: a batch leaves every bucket count, the
// count and the bits of sum, min and max where an Observe loop leaves them,
// on a fresh sketch and after earlier observations.
func TestObserveAllMatchesObserveLoop(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	noisy := make([]float64, 1000)
	for i := range noisy {
		noisy[i] = r.ExpFloat64() * 100
	}
	negZero := math.Copysign(0, -1)
	batches := map[string][]float64{
		"empty":     nil,
		"nan only":  {math.NaN()},
		"one":       {42},
		"noisy":     noisy,
		"signed 0":  {negZero, 0, 3, negZero},
		"+0 first":  {0, negZero, -1, 2},
		"inf":       {1, math.Inf(1), 2, math.Inf(-1)},
		"nan mixed": {math.NaN(), 1e-12, 9, math.NaN(), 1e15},
		"ulp sum":   {1e16, 1, 1, 1, 1, -1e16},
	}
	priors := map[string][]float64{
		"fresh":    nil,
		"observed": {7, 0.5, 3e3},
		"zero":     {negZero},
	}
	for bn, batch := range batches {
		for pn, prior := range priors {
			loop, all := &Quantile{}, &Quantile{}
			for _, v := range prior {
				loop.Observe(v)
				all.Observe(v)
			}
			for _, v := range batch {
				loop.Observe(v)
			}
			all.ObserveAll(batch)
			if stateOf(loop) != stateOf(all) {
				l, a := stateOf(loop), stateOf(all)
				t.Errorf("%s after %s: ObserveAll count %d sum %#x min %#x max %#x, Observe loop %d %#x %#x %#x (or a bucket differs)",
					bn, pn, a.count, a.sum, a.lo, a.hi, l.count, l.sum, l.lo, l.hi)
			}
		}
	}
}

// TestObserveAllConcurrent: batches and single observations on one series
// from several goroutines lose no count (run under -race).
func TestObserveAllConcurrent(t *testing.T) {
	q := &Quantile{}
	const workers, rounds = 4, 200
	batch := []float64{1, math.NaN(), 2, 3, math.Inf(1)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q.ObserveAll(batch)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q.Observe(float64(i))
				q.Observe(math.NaN())
			}
		}()
	}
	wg.Wait()
	if want := uint64(workers * rounds * (4 + 1)); q.Count() != want {
		t.Errorf("count = %d, want %d non-NaN observations", q.Count(), want)
	}
	if !math.IsInf(q.Max(), 1) || q.Min() != 0 {
		t.Errorf("min %g max %g, want 0 and +Inf", q.Min(), q.Max())
	}
}

func TestQuantileConcurrent(t *testing.T) {
	q := &Quantile{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				q.Observe(1 + r.Float64())
			}
		}(int64(w))
	}
	wg.Wait()
	if q.Count() != workers*per {
		t.Errorf("count = %d, want %d", q.Count(), workers*per)
	}
	if p50 := q.Quantiles(0.5)[0]; p50 < 1 || p50 > 2 {
		t.Errorf("p50 = %g outside observed [1,2]", p50)
	}
}

func TestQuantileVec(t *testing.T) {
	reg := NewRegistry()
	vec := reg.QuantileVec("rpc_ms", "per-method latency", "method")
	vec.With("get").Observe(1)
	vec.With("put").Observe(100)
	if same := vec.With("get"); same != vec.With("get") {
		t.Error("With not cached per label value")
	}
	snap := reg.Snapshot()
	var fam *FamilySnapshot
	for i := range snap {
		if snap[i].Name == "rpc_ms" {
			fam = &snap[i]
		}
	}
	if fam == nil || fam.Kind != KindQuantile || len(fam.Samples) != 2 {
		t.Fatalf("bad family: %+v", fam)
	}
	for _, s := range fam.Samples {
		if len(s.Quantiles) != len(ExportQuantiles) {
			t.Errorf("sample %v: %d quantile points, want %d", s.Labels, len(s.Quantiles), len(ExportQuantiles))
		}
	}
}

func TestQuantilePrometheusSummary(t *testing.T) {
	reg := NewRegistry()
	q := reg.Quantile("req_ms", "request latency")
	for i := 1; i <= 100; i++ {
		q.Observe(float64(i))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_ms summary",
		`req_ms{quantile="0.5"}`,
		`req_ms{quantile="0.99"}`,
		"req_ms_sum 5050",
		"req_ms_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
