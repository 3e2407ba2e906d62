package obs

// Streaming quantiles. A Quantile is a log-bucketed (DDSketch/HDR-style)
// sketch: observations land in geometrically spaced buckets, so p50/p95/p99
// estimates carry a bounded *relative* error (~1%) with no preset bucket
// bounds, at any unit and scale. It is the registry's only distribution
// type; it also keeps the exact count and sum, so busy-time totals are read
// off it too. Observe is lock-free (two atomic adds plus a CAS float sum),
// making it safe on the same hot paths as Counter.

import (
	"math"
	"sync/atomic"
)

const (
	// quantileGamma is the geometric bucket growth factor. The quantile
	// estimate for a bucket is its geometric midpoint, so the worst-case
	// relative error is (sqrt(gamma)-1) ≈ 1%.
	quantileGamma = 1.02
	// quantileMinValue is the smallest distinguishable positive value;
	// anything at or below it (zero and negatives included) lands in the
	// underflow bucket and reports as 0.
	quantileMinValue = 1e-9
	// quantileBuckets spans [1e-9, ~2.6e12) at gamma growth: index
	// 1 + log(max/min)/log(gamma) with max/min = 2.6e21 needs ~2493
	// buckets. Values beyond the top clamp into the last bucket.
	quantileBuckets = 2496
)

var invLogQuantileGamma = 1 / math.Log(quantileGamma)

// ExportQuantiles is the quantile set rendered in snapshots and the
// Prometheus summary exposition.
var ExportQuantiles = []float64{0.5, 0.9, 0.95, 0.99}

// Quantile is a streaming-quantile metric. Create via Registry.Quantile or
// QuantileVec; the zero value is ready to use in isolation.
type Quantile struct {
	counts  [quantileBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // math.Float64bits of the observed minimum
	maxBits atomic.Uint64 // math.Float64bits of the observed maximum
	hasMM   atomic.Uint32 // min/max initialised
}

// quantileTop is the last bucket's value: the Log below maps everything at
// or above it to the last bucket too, but +Inf must not reach the int.
var quantileTop = quantileBucketValue(quantileBuckets - 1)

// quantileIndex maps a value to its bucket.
func quantileIndex(v float64) int {
	if !(v > quantileMinValue) { // NaN, zero, negatives, denormals → underflow
		return 0
	}
	if v >= quantileTop {
		return quantileBuckets - 1
	}
	i := 1 + int(math.Log(v/quantileMinValue)*invLogQuantileGamma)
	if i >= quantileBuckets {
		return quantileBuckets - 1
	}
	return i
}

// quantileBucketValue is the representative (geometric midpoint) value of a
// bucket: the estimate returned for any rank landing in it.
func quantileBucketValue(i int) float64 {
	if i == 0 {
		return 0
	}
	return quantileMinValue * math.Pow(quantileGamma, float64(i)-0.5)
}

// Observe records one value. NaN is dropped, as stats.CDF.Add drops it.
func (q *Quantile) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	q.counts[quantileIndex(v)].Add(1)
	q.count.Add(1)
	for {
		old := q.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if q.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	q.foldExtremes(v, v)
}

// foldExtremes folds a batch's extremes into the sketch's, keeping the
// earlier of equal values.
func (q *Quantile) foldExtremes(lo, hi float64) {
	if q.hasMM.Load() == 0 && q.hasMM.CompareAndSwap(0, 1) {
		q.minBits.Store(math.Float64bits(lo))
		q.maxBits.Store(math.Float64bits(hi))
		return
	}
	casFloatIf(&q.minBits, lo, func(cur float64) bool { return lo < cur })
	casFloatIf(&q.maxBits, hi, func(cur float64) bool { return hi > cur })
}

// ObserveAll records vs in order, NaNs dropped. With no concurrent writer
// the sketch ends as one Observe per value would leave it, bit for bit: the
// sum folds left from its current value, and min and max keep the earliest
// of equal extremes. The batch takes one count add and one sum CAS.
func (q *Quantile) ObserveAll(vs []float64) {
	n, lo, hi := uint64(0), math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		if math.IsNaN(v) {
			continue
		}
		q.counts[quantileIndex(v)].Add(1)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		n++
	}
	if n == 0 {
		return
	}
	q.count.Add(n)
	for {
		old := q.sumBits.Load()
		sum := math.Float64frombits(old)
		for _, v := range vs {
			if !math.IsNaN(v) {
				sum += v
			}
		}
		if q.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			break
		}
	}
	q.foldExtremes(lo, hi)
}

func casFloatIf(bits *atomic.Uint64, v float64, better func(cur float64) bool) {
	for {
		old := bits.Load()
		if !better(math.Float64frombits(old)) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (q *Quantile) Count() uint64 { return q.count.Load() }

// Sum returns the sum of all observed values.
func (q *Quantile) Sum() float64 { return math.Float64frombits(q.sumBits.Load()) }

// Min and Max return the exact observed extremes (0 before any Observe).
func (q *Quantile) Min() float64 {
	if q.hasMM.Load() == 0 {
		return 0
	}
	return math.Float64frombits(q.minBits.Load())
}

// Max returns the largest observed value (0 before any Observe).
func (q *Quantile) Max() float64 {
	if q.hasMM.Load() == 0 {
		return 0
	}
	return math.Float64frombits(q.maxBits.Load())
}

// Quantiles returns estimates for several probabilities in one pass over
// the buckets. Each p must be in [0,1]; it panics otherwise. An empty sketch
// returns zeros. Estimates are clamped to the exact observed [Min, Max] so
// p=0 and p=1 never stray outside the data.
func (q *Quantile) Quantiles(ps ...float64) []float64 {
	for _, p := range ps {
		if p < 0 || p > 1 || math.IsNaN(p) {
			panic("obs: quantile probability outside [0,1]")
		}
	}
	out := make([]float64, len(ps))
	total := q.count.Load()
	if total == 0 {
		return out
	}
	lo, hi := q.Min(), q.Max()
	for k, p := range ps {
		// rank in [1, total]: the smallest bucket whose cumulative count
		// reaches it holds the estimate.
		rank := uint64(math.Ceil(p * float64(total)))
		if rank < 1 {
			rank = 1
		}
		cum := uint64(0)
		v := hi
		for i := 0; i < quantileBuckets; i++ {
			cum += q.counts[i].Load()
			if cum >= rank {
				v = quantileBucketValue(i)
				break
			}
		}
		out[k] = math.Min(math.Max(v, lo), hi)
	}
	return out
}

// QuantilePoint is one exported quantile estimate in a snapshot.
type QuantilePoint struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
}

// snapshotQuantiles renders the ExportQuantiles estimates.
func (q *Quantile) snapshotQuantiles() []QuantilePoint {
	vs := q.Quantiles(ExportQuantiles...)
	out := make([]QuantilePoint, len(vs))
	for i, v := range vs {
		out[i] = QuantilePoint{P: ExportQuantiles[i], Value: v}
	}
	return out
}

// QuantileVec is a streaming-quantile family with labels.
type QuantileVec struct{ f *family }

// With returns the sketch for the given label values (created on first use).
func (v *QuantileVec) With(values ...string) *Quantile {
	return v.f.child(values, func() any { return &Quantile{} }).(*Quantile)
}

// Quantile registers (or fetches) an unlabelled streaming-quantile metric.
func (r *Registry) Quantile(name, help string) *Quantile {
	f := r.register(name, help, KindQuantile, nil)
	return f.child(nil, func() any { return &Quantile{} }).(*Quantile)
}

// QuantileVec registers (or fetches) a labelled streaming-quantile family.
func (r *Registry) QuantileVec(name, help string, labels ...string) *QuantileVec {
	return &QuantileVec{r.register(name, help, KindQuantile, labels)}
}
