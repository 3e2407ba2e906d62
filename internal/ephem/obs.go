package ephem

import "repro/internal/obs"

// Metric families the engine maintains. Registered on the configured
// registry (obs.Default() unless overridden); several engines on one
// registry share families, so counters aggregate — use Engine.Stats for
// per-engine numbers.
type metricsSet struct {
	hits         *obs.Counter   // ephem_cache_hits_total
	misses       *obs.Counter   // ephem_cache_misses_total
	propagated   *obs.Counter   // ephem_propagated_satellites_total
	frames       *obs.Gauge     // ephem_cache_frames
	propagateSec *obs.Histogram // ephem_propagate_seconds
	propagateQ   *obs.Quantile  // ephem_propagate_ms — cache-miss batch latency
}

// One full-constellation batch is hundreds of µs serial, tens of µs when
// fanned out; sub-µs buckets catch degenerate tiny constellations.
var propagateBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2}

func newMetrics(reg *obs.Registry) *metricsSet {
	return &metricsSet{
		hits: reg.Counter("ephem_cache_hits_total",
			"Snapshot requests served from the keyframe cache."),
		misses: reg.Counter("ephem_cache_misses_total",
			"Snapshot requests that had to propagate the constellation."),
		propagated: reg.Counter("ephem_propagated_satellites_total",
			"Individual satellite position/velocity propagations performed."),
		frames: reg.Gauge("ephem_cache_frames",
			"Full-constellation frames currently held across cache tiers."),
		propagateSec: reg.Histogram("ephem_propagate_seconds",
			"Wall-clock time of one full-constellation propagation batch.", propagateBuckets),
		propagateQ: reg.Quantile("ephem_propagate_ms",
			"Streaming quantile of cache-miss propagation-batch latency in ms."),
	}
}
