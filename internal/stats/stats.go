// Package stats provides the summary statistics the experiment harness
// reports: empirical CDFs, quantiles, and running summaries. Everything is
// deterministic and allocation-conscious so benches can call it in loops.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count/min/max/mean in one pass (Welford's running
// mean). The zero value is ready to use.
type Summary struct {
	n    int
	min  float64
	max  float64
	mean float64
}

// Add folds a value into the summary. NaN values are dropped: one NaN
// would make every later Mean NaN.
func (s *Summary) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	d := v - s.mean
	s.mean += d / float64(s.n)
}

// N returns the number of values added.
func (s *Summary) N() int { return s.n }

// Min returns the smallest value added (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest value added (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// CDF is an empirical cumulative distribution over collected samples.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF creates a CDF, optionally pre-seeded with samples.
func NewCDF(samples ...float64) *CDF {
	c := &CDF{}
	c.AddAll(samples)
	return c
}

// Add appends one sample. NaN samples are dropped: NaN compares false
// with everything, so a single one would poison every later
// Quantile/Median/At/Max (NaN order statistics and skewed ranks) with no
// error surfacing.
func (c *CDF) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	c.samples = append(c.samples, v)
	c.sorted = false
}

// AddAll appends samples, dropping NaNs (see Add).
func (c *CDF) AddAll(vs []float64) {
	for _, v := range vs {
		c.Add(v)
	}
}

// Reserve makes room for n more samples in one allocation, for a caller
// that knows the count ahead and would otherwise pay append's regrowth.
func (c *CDF) Reserve(n int) {
	if need := len(c.samples) + n; need > cap(c.samples) {
		c.samples = append(make([]float64, 0, need), c.samples...)
	}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-quantile (q in [0,1]) using linear interpolation
// between order statistics. It panics on an empty CDF or q outside [0,1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		panic("stats: Quantile of empty CDF")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile(%v) outside [0,1]", q))
	}
	c.ensureSorted()
	if len(c.samples) == 1 {
		return c.samples[0]
	}
	pos := q * float64(len(c.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.samples[lo]
	}
	frac := pos - float64(lo)
	return c.samples[lo]*(1-frac) + c.samples[hi]*frac
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Max returns the largest sample; panics when empty.
func (c *CDF) Max() float64 {
	c.ensureSorted()
	return c.samples[len(c.samples)-1]
}

// Points returns (x, P(X<=x)) pairs suitable for plotting: one per distinct
// sample value, monotone in both coordinates.
func (c *CDF) Points() (xs, ps []float64) {
	if len(c.samples) == 0 {
		return nil, nil
	}
	c.ensureSorted()
	n := float64(len(c.samples))
	for i := 0; i < len(c.samples); i++ {
		// Emit only the last occurrence of each distinct x so P is the
		// proper right-continuous CDF value.
		if i+1 < len(c.samples) && c.samples[i+1] == c.samples[i] {
			continue
		}
		xs = append(xs, c.samples[i])
		ps = append(ps, float64(i+1)/n)
	}
	return xs, ps
}
