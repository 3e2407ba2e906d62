package fleet

import "repro/internal/obs"

// Metric families the orchestrator maintains. Families are registered on
// the configured registry (obs.Default() unless overridden); hot paths
// hold the concrete metric so an update is one atomic op. Two
// orchestrators on the same registry share families — counters aggregate.
type metricsSet struct {
	sessions     *obs.Gauge     // fleet_sessions
	assigned     *obs.Gauge     // fleet_sessions_assigned
	placeInitial *obs.Counter   // fleet_placements_total{kind="initial"}
	placeHandoff *obs.Counter   // fleet_placements_total{kind="handoff"}
	handoffs     *obs.Counter   // fleet_handoffs_total
	rejections   *obs.Counter   // fleet_rejections_total
	departures   *obs.Counter   // fleet_departures_total
	epochs       *obs.Counter   // fleet_epochs_total
	placeLat     *obs.Histogram // fleet_placement_latency_seconds
	indexQuery   *obs.Histogram // fleet_index_query_seconds
	epochSec     *obs.Histogram // fleet_epoch_seconds
	transferMs   *obs.Histogram // fleet_handoff_transfer_ms

	// Streaming quantiles (no preset bucket bounds) feeding the timeline
	// recorder and the fleetsim SLO report.
	replanQ   *obs.Quantile // fleet_replan_ms — per-session proposal/replan latency
	transferQ *obs.Quantile // fleet_transfer_ms — hand-off one-way transfer latency

	// Streaming-planner families.
	streamChunks *obs.Counter // fleet_planner_chunks_total
	spillShells  *obs.Counter // fleet_spill_shell_scans_total
	ssspBatched  *obs.Counter // fleet_transfer_sssp_rows_total{mode="batched"}
	ssspLazy     *obs.Counter // fleet_transfer_sssp_rows_total{mode="lazy"}
	ssspSettled  *obs.Counter // fleet_transfer_sssp_settled_nodes_total

	// Fault-injection families (all events are counted even when no
	// injector is configured — they then stay at zero).
	faultSatFail  *obs.Counter // fleet_faults_total{kind="sat_fail"}
	faultSatRec   *obs.Counter // fleet_faults_total{kind="sat_recover"}
	faultMig      *obs.Counter // fleet_faults_total{kind="migration_fail"}
	faultISL      *obs.Counter // fleet_faults_total{kind="isl_degraded"}
	downSats      *obs.Gauge   // fleet_faults_down_satellites
	evacOK        *obs.Counter // fleet_evacuations_total{result="ok"}
	evacDeferred  *obs.Counter // fleet_evacuations_total{result="deferred"}
	evacPending   *obs.Gauge   // fleet_evacuations_pending
	migRetries    *obs.Counter // fleet_migration_retries_total
	retryDeferred *obs.Counter // fleet_retry_backoff_deferrals_total
}

var (
	// Wall-clock buckets for per-session planner work (µs-scale).
	placementBuckets = []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3, 1e-2, 0.1}
	// Footprint-index query buckets (sub-µs to ms).
	queryBuckets = []float64{2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 5e-5, 1e-4, 1e-3}
	// One-way state-transfer latency buckets in milliseconds.
	transferBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250}
)

func newMetrics(reg *obs.Registry) *metricsSet {
	placements := reg.CounterVec("fleet_placements_total",
		"Session placements by kind: initial admissions vs hand-off re-placements.", "kind")
	faults := reg.CounterVec("fleet_faults_total",
		"Injected fault events consumed by the orchestrator, by kind.", "kind")
	evac := reg.CounterVec("fleet_evacuations_total",
		"Sessions leaving a failed satellite: ok = re-placed, deferred = awaiting retry or capacity.", "result")
	ssspRows := reg.CounterVec("fleet_transfer_sssp_rows_total",
		"Multi-source SSSP rows computed for hand-off transfer pricing, by mode.", "mode")
	return &metricsSet{
		streamChunks: reg.Counter("fleet_planner_chunks_total",
			"Streaming chunks the epoch planner proposed and admitted."),
		spillShells: reg.Counter("fleet_spill_shell_scans_total",
			"Shells a proposal skipped that admission scanned because the load spill reached them."),
		ssspBatched: ssspRows.With("batched"),
		ssspLazy:    ssspRows.With("lazy"),
		ssspSettled: reg.Counter("fleet_transfer_sssp_settled_nodes_total",
			"Nodes settled by the radius-bounded SSSP rows of hand-off transfer pricing."),
		faultSatFail: faults.With("sat_fail"),
		faultSatRec:  faults.With("sat_recover"),
		faultMig:     faults.With("migration_fail"),
		faultISL:     faults.With("isl_degraded"),
		downSats: reg.Gauge("fleet_faults_down_satellites",
			"Satellites currently hard-failed."),
		evacOK:       evac.With("ok"),
		evacDeferred: evac.With("deferred"),
		evacPending: reg.Gauge("fleet_evacuations_pending",
			"Sessions off a failed satellite still waiting for a new assignment."),
		migRetries: reg.Counter("fleet_migration_retries_total",
			"Migration attempts that were retries after an injected transfer failure."),
		retryDeferred: reg.Counter("fleet_retry_backoff_deferrals_total",
			"Per-epoch placement skips while a session waits out its retry backoff."),
		sessions: reg.Gauge("fleet_sessions",
			"Sessions currently tracked by the fleet orchestrator."),
		assigned: reg.Gauge("fleet_sessions_assigned",
			"Sessions currently holding a satellite-server assignment."),
		placeInitial: placements.With("initial"),
		placeHandoff: placements.With("handoff"),
		handoffs: reg.Counter("fleet_handoffs_total",
			"Completed session migrations between satellite-servers."),
		rejections: reg.Counter("fleet_rejections_total",
			"Placement attempts that found no satellite with both visibility and capacity."),
		departures: reg.Counter("fleet_departures_total",
			"Sessions removed at their departure time."),
		epochs: reg.Counter("fleet_epochs_total",
			"Planner epochs executed."),
		placeLat: reg.Histogram("fleet_placement_latency_seconds",
			"Wall-clock time to compute one session's ranked placement proposal.", placementBuckets),
		indexQuery: reg.Histogram("fleet_index_query_seconds",
			"Wall-clock time of one session's footprint-index scans: its proposal's plus any its spill needed in admission.", queryBuckets),
		epochSec: reg.Histogram("fleet_epoch_seconds",
			"Wall-clock time of one full planner epoch.", obs.DefBuckets),
		transferMs: reg.Histogram("fleet_handoff_transfer_ms",
			"One-way state-transfer latency of hand-offs (ISL path or ground relay).", transferBuckets),
		replanQ: reg.Quantile("fleet_replan_ms",
			"Streaming quantile of per-session placement/replan proposal latency in wall-clock ms."),
		transferQ: reg.Quantile("fleet_transfer_ms",
			"Streaming quantile of hand-off one-way state-transfer latency in simulated ms."),
	}
}
