package netgraph

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metric families the frozen-graph engine maintains. Registered lazily on
// obs.Default() unless a Network overrides its registry with UseObs;
// several networks on one registry share families, so counters aggregate —
// TotalStats gives the package-wide view the CLIs print.
type metricsSet struct {
	freezes     *obs.Counter   // netgraph_freeze_total
	freezeSec   *obs.Histogram // netgraph_freeze_seconds
	frozenEdges *obs.Gauge     // netgraph_frozen_edges

	path, sssp, isl kindMetrics // the {kind=path|sssp|isl} series
}

// kindMetrics is one query kind's series across the three query families.
type kindMetrics struct {
	queries *obs.Counter   // netgraph_queries_total{kind}
	sec     *obs.Histogram // netgraph_query_seconds{kind}
	// Streaming quantile over the same latencies (ms), feeding the timeline
	// recorder without preset bucket bounds.
	ms    *obs.Quantile  // netgraph_query_ms{kind}
	total *atomic.Uint64 // the package-wide count TotalStats reports
}

// A freeze is one visibility scan per ground station plus the CSR fill —
// tens of µs to a few ms at constellation scale; queries on the frozen
// arrays run µs-scale.
var (
	freezeBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2}
	queryBuckets  = []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3}
)

func newMetrics(reg *obs.Registry) *metricsSet {
	queries := reg.CounterVec("netgraph_queries_total",
		"Routing queries served from frozen CSR snapshots, by kind.", "kind")
	querySec := reg.HistogramVec("netgraph_query_seconds",
		"Wall-clock time of one routing query on a frozen snapshot.", queryBuckets, "kind")
	queryQ := reg.QuantileVec("netgraph_query_ms",
		"Streaming quantile of routing-query wall-clock latency in ms, by kind.", "kind")
	kind := func(name string, total *atomic.Uint64) kindMetrics {
		return kindMetrics{queries.With(name), querySec.With(name), queryQ.With(name), total}
	}
	return &metricsSet{
		freezes: reg.Counter("netgraph_freeze_total",
			"Snapshot topologies frozen into CSR adjacency."),
		freezeSec: reg.Histogram("netgraph_freeze_seconds",
			"Wall-clock time to freeze one snapshot topology.", freezeBuckets),
		frozenEdges: reg.Gauge("netgraph_frozen_edges",
			"Directed edge count of the most recently frozen snapshot."),
		path: kind("path", &totalPathQueries),
		sssp: kind("sssp", &totalSSSPQueries),
		isl:  kind("isl", &totalISLQueries),
	}
}

// observe records one finished query of this kind that began at start. The
// clock is read once, so the histogram and the sketch see the same duration.
func (k *kindMetrics) observe(start time.Time) {
	d := time.Since(start)
	k.queries.Inc()
	k.sec.Observe(d.Seconds())
	k.ms.Observe(float64(d) / float64(time.Millisecond))
	k.total.Add(1)
}

// QueryQuantiles returns streaming estimates (ms) of query latency for one
// kind ("path", "sssp", "isl") from the package-default metrics — what the
// CLIs put in runinfo without scraping an HTTP endpoint.
func QueryQuantiles(kind string, ps ...float64) []float64 {
	m := defaultMetrics()
	var q *obs.Quantile
	switch kind {
	case "path":
		q = m.path.ms
	case "sssp":
		q = m.sssp.ms
	case "isl":
		q = m.isl.ms
	default:
		return make([]float64, len(ps))
	}
	return q.Quantiles(ps...)
}

var (
	defaultMetricsOnce sync.Once
	defaultMetricsSet  *metricsSet
)

func defaultMetrics() *metricsSet {
	defaultMetricsOnce.Do(func() { defaultMetricsSet = newMetrics(obs.Default()) })
	return defaultMetricsSet
}

// metrics returns the network's metric set (the package default unless
// UseObs overrode it).
func (n *Network) metrics() *metricsSet {
	if n.m != nil {
		return n.m
	}
	return defaultMetrics()
}

// UseObs routes the network's netgraph_* metrics to reg (nil keeps the
// process default registry). Returns n for chaining.
func (n *Network) UseObs(reg *obs.Registry) *Network {
	if reg != nil {
		n.m = newMetrics(reg)
	}
	return n
}

// pkgTracer, when set, records one span per snapshot freeze. Freeze spans
// flow to whatever tracer the hosting binary installed (cmd/figures -trace).
var pkgTracer atomic.Pointer[obs.Tracer]

// SetTracer installs the tracer freeze spans are recorded on (nil disables).
func SetTracer(tr *obs.Tracer) { pkgTracer.Store(tr) }

func tracer() *obs.Tracer { return pkgTracer.Load() }

// Package-wide activity counters, kept separately from the obs registry so
// CLIs can print a routing summary without scraping metric families.
var (
	totalFreezes     atomic.Uint64
	totalFrozenEdges atomic.Uint64
	totalPathQueries atomic.Uint64
	totalSSSPQueries atomic.Uint64
	totalISLQueries  atomic.Uint64
)

// Stats is a point-in-time view of the package-wide frozen-graph activity.
type Stats struct {
	// Freezes counts snapshot topologies frozen into CSR form.
	Freezes uint64
	// FrozenEdges sums the directed edge counts across those freezes.
	FrozenEdges uint64
	// PathQueries, SSSPQueries, and ISLQueries count point-to-point,
	// single-source-all-destinations, and ISL-grid-only queries.
	PathQueries, SSSPQueries, ISLQueries uint64
}

// Queries returns the total routing queries of all kinds.
func (s Stats) Queries() uint64 { return s.PathQueries + s.SSSPQueries + s.ISLQueries }

// TotalStats returns the process-wide frozen-graph activity since start.
func TotalStats() Stats {
	return Stats{
		Freezes:     totalFreezes.Load(),
		FrozenEdges: totalFrozenEdges.Load(),
		PathQueries: totalPathQueries.Load(),
		SSSPQueries: totalSSSPQueries.Load(),
		ISLQueries:  totalISLQueries.Load(),
	}
}
