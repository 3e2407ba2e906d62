package ephem

import "repro/internal/obs"

// Metric families the engine maintains. Registered on the configured
// registry (obs.Default() unless overridden); several engines on one
// registry share families, so counters aggregate — use Engine.Stats for
// per-engine numbers.
type metricsSet struct {
	hits         *obs.Counter  // ephem_cache_hits_total
	misses       *obs.Counter  // ephem_cache_misses_total
	propagated   *obs.Counter  // ephem_propagated_satellites_total
	frames       *obs.Gauge    // ephem_cache_frames
	propagateSec *obs.Quantile // ephem_propagate_seconds — one per cache miss
}

func newMetrics(reg *obs.Registry) *metricsSet {
	return &metricsSet{
		hits: reg.Counter("ephem_cache_hits_total",
			"Snapshot requests served from a stored frame."),
		misses: reg.Counter("ephem_cache_misses_total",
			"Snapshot requests that had to propagate the constellation."),
		propagated: reg.Counter("ephem_propagated_satellites_total",
			"Individual satellite position/velocity propagations performed."),
		frames: reg.Gauge("ephem_cache_frames",
			"Full-constellation frames currently held in the frame store."),
		propagateSec: reg.Quantile("ephem_propagate_seconds",
			"Wall-clock time of one full-constellation propagation batch."),
	}
}
