package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("zero Summary not neutral")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Sample variance of this classic set is 32/7.
	if !almostEq(s.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v", s.Variance())
	}
	if !almostEq(s.Stddev(), math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("Stddev = %v", s.Stddev())
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSummarySingleValue(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Variance() != 0 || s.Min() != 42 || s.Max() != 42 || s.Mean() != 42 {
		t.Fatalf("single-value summary wrong: %v", s.String())
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		var s Summary
		vals := make([]float64, n)
		sum := 0.0
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
			s.Add(vals[i])
			sum += vals[i]
		}
		mean := sum / float64(n)
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		wantVar := ss / float64(n-1)
		return almostEq(s.Mean(), mean, 1e-9*math.Max(1, math.Abs(mean))) &&
			almostEq(s.Variance(), wantVar, 1e-6*math.Max(1, wantVar))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantiles(t *testing.T) {
	c := NewCDF(1, 2, 3, 4, 5)
	if c.Median() != 3 {
		t.Fatalf("Median = %v", c.Median())
	}
	if c.Quantile(0) != 1 || c.Quantile(1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if got := c.Quantile(0.25); !almostEq(got, 2, 1e-12) {
		t.Fatalf("Q25 = %v", got)
	}
	// Interpolation between order stats.
	c2 := NewCDF(0, 10)
	if got := c2.Quantile(0.3); !almostEq(got, 3, 1e-12) {
		t.Fatalf("interpolated Q30 = %v", got)
	}
}

func TestCDFQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty Quantile should panic")
		}
	}()
	NewCDF().Quantile(0.5)
}

func TestCDFQuantileRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(1.5) should panic")
		}
	}()
	NewCDF(1).Quantile(1.5)
}

func TestCDFAt(t *testing.T) {
	c := NewCDF(1, 2, 2, 3)
	tests := []struct{ v, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range tests {
		if got := c.At(tc.v); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	if NewCDF().At(1) != 0 {
		t.Fatal("empty CDF At != 0")
	}
}

func TestCDFMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCDF()
		for i := 0; i < 200; i++ {
			c.Add(r.NormFloat64())
		}
		xs, ps := c.Points()
		for i := 1; i < len(xs); i++ {
			if xs[i] <= xs[i-1] || ps[i] <= ps[i-1] {
				return false
			}
		}
		return len(ps) > 0 && almostEq(ps[len(ps)-1], 1, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantileAtInverse(t *testing.T) {
	// For continuous samples, At(Quantile(q)) ≈ q.
	r := rand.New(rand.NewSource(9))
	c := NewCDF()
	for i := 0; i < 1000; i++ {
		c.Add(r.Float64() * 100)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		if got := c.At(c.Quantile(q)); math.Abs(got-q) > 0.01 {
			t.Fatalf("At(Quantile(%v)) = %v", q, got)
		}
	}
}

func TestCDFMinMaxMean(t *testing.T) {
	c := NewCDF(5, 1, 3)
	if c.Min() != 1 || c.Max() != 5 {
		t.Fatal("Min/Max wrong")
	}
	if !almostEq(c.Mean(), 3, 1e-12) {
		t.Fatalf("Mean = %v", c.Mean())
	}
	if NewCDF().Mean() != 0 {
		t.Fatal("empty Mean != 0")
	}
}

func TestCDFAddAllAndN(t *testing.T) {
	c := NewCDF()
	c.AddAll([]float64{3, 1, 2})
	c.Add(0)
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	// Sorting happens lazily and samples stay correct after more adds.
	if c.Median() != 1.5 {
		t.Fatalf("Median = %v", c.Median())
	}
	c.Add(100)
	if c.Max() != 100 {
		t.Fatal("Max after late Add wrong")
	}
}

func TestCDFPointsDedup(t *testing.T) {
	c := NewCDF(1, 1, 1, 2)
	xs, ps := c.Points()
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 2 {
		t.Fatalf("xs = %v", xs)
	}
	if !almostEq(ps[0], 0.75, 1e-12) || !almostEq(ps[1], 1, 1e-12) {
		t.Fatalf("ps = %v", ps)
	}
}

func TestQuantileAgainstSort(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = r.Float64() * 1000
	}
	c := NewCDF(vals...)
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	// With 101 samples, quantile q lands exactly on index 100q.
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		want := sorted[int(q*100)]
		if got := c.Quantile(q); !almostEq(got, want, 1e-9) {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSummaryDropsNaN(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(math.NaN())
	s.Add(3)
	if s.N() != 2 {
		t.Fatalf("N = %d, want 2 (NaN dropped)", s.N())
	}
	if s.Mean() != 2 || s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("mean/min/max = %v/%v/%v, want 2/1/3", s.Mean(), s.Min(), s.Max())
	}
	if math.IsNaN(s.Variance()) || math.IsNaN(s.Stddev()) {
		t.Fatal("NaN leaked into variance")
	}
	// A summary fed only NaNs stays empty.
	var empty Summary
	empty.Add(math.NaN())
	if empty.N() != 0 {
		t.Fatalf("N = %d, want 0", empty.N())
	}
}

func TestCDFDropsNaN(t *testing.T) {
	c := NewCDF(5, math.NaN(), 1, 3, math.NaN())
	if c.N() != 3 {
		t.Fatalf("N = %d, want 3 (NaNs dropped)", c.N())
	}
	// NaN compares false with everything, so before the fix a single NaN
	// skewed sort order and poisoned the order statistics.
	if got := c.Median(); got != 3 {
		t.Fatalf("Median = %v, want 3", got)
	}
	if got := c.Min(); got != 1 {
		t.Fatalf("Min = %v, want 1", got)
	}
	if got := c.Max(); got != 5 {
		t.Fatalf("Max = %v, want 5", got)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if v := c.Quantile(q); math.IsNaN(v) {
			t.Fatalf("Quantile(%v) is NaN", q)
		}
	}
	if math.IsNaN(c.Mean()) {
		t.Fatal("Mean is NaN")
	}
	c.Add(math.NaN())
	if c.N() != 3 {
		t.Fatal("Add(NaN) grew the sample set")
	}
}

// TestCDFReserve: a reservation changes no answer and takes the place of
// every allocation the reserved samples would have cost.
func TestCDFReserve(t *testing.T) {
	c := NewCDF(3, 1)
	c.Reserve(2000) // AllocsPerRun calls the function twice: a warm-up and the run
	if c.N() != 2 || c.Median() != 2 {
		t.Fatalf("reservation changed the samples: n=%d median=%v", c.N(), c.Median())
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			c.Add(float64(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations adding reserved samples", allocs)
	}
}
