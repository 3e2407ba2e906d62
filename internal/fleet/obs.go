package fleet

import "repro/internal/obs"

// Metric families the orchestrator maintains. Families are registered on
// the configured registry (obs.Default() unless overridden); hot paths
// hold the concrete metric so an update is a few atomic ops. Two
// orchestrators on the same registry share families — counters aggregate.
// The decision counters and the gauges are written only by publish, once a
// Step, from its EpochReport; the probes below them keep their call sites.
type metricsSet struct {
	sessions      *obs.Gauge   // fleet_sessions
	assigned      *obs.Gauge   // fleet_sessions_assigned
	evacPending   *obs.Gauge   // fleet_evacuations_pending
	placeInitial  *obs.Counter // fleet_placements_total{kind="initial"}
	placeHandoff  *obs.Counter // fleet_placements_total{kind="handoff"}
	rejections    *obs.Counter // fleet_rejections_total
	epochs        *obs.Counter // fleet_epochs_total
	faultSatFail  *obs.Counter // fleet_faults_total{kind="sat_fail"}
	faultSatRec   *obs.Counter // fleet_faults_total{kind="sat_recover"}
	faultMig      *obs.Counter // fleet_faults_total{kind="migration_fail"}
	faultISL      *obs.Counter // fleet_faults_total{kind="isl_degraded"}
	evacOK        *obs.Counter // fleet_evacuations_total{result="ok"}
	evacDeferred  *obs.Counter // fleet_evacuations_total{result="deferred"}
	retryDeferred *obs.Counter // fleet_retry_backoff_deferrals_total

	// Streaming quantiles, each folded once per planner chunk. The fleetsim
	// SLO report reads replanQ and transferQ; the bench harness adds up
	// indexQuery's sum by name.
	indexQuery *obs.Quantile // fleet_index_query_seconds — one per proposer block, one per spilling chunk
	epochSec   *obs.Quantile // fleet_epoch_seconds
	replanQ    *obs.Quantile // fleet_replan_ms — per-session proposal latency, 1 session in replanSample
	transferQ  *obs.Quantile // fleet_transfer_ms — hand-off one-way transfer latency

	// Streaming-planner probes.
	streamChunks *obs.Counter // fleet_planner_chunks_total
	spillShells  *obs.Counter // fleet_spill_shell_scans_total
	ssspLazy     *obs.Counter // fleet_transfer_sssp_rows_total{mode="lazy"}
}

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
		ssspLazy:     ssspRows.With("lazy"),
		faultSatFail: faults.With("sat_fail"),
		faultSatRec:  faults.With("sat_recover"),
		faultMig:     faults.With("migration_fail"),
		faultISL:     faults.With("isl_degraded"),
		evacOK:       evac.With("ok"),
		evacDeferred: evac.With("deferred"),
		evacPending: reg.Gauge("fleet_evacuations_pending",
			"Sessions off a failed satellite still waiting for a new assignment."),
		retryDeferred: reg.Counter("fleet_retry_backoff_deferrals_total",
			"Per-epoch placement skips while a session waits out its retry backoff."),
		sessions: reg.Gauge("fleet_sessions",
			"Sessions currently tracked by the fleet orchestrator."),
		assigned: reg.Gauge("fleet_sessions_assigned",
			"Sessions currently holding a satellite-server assignment."),
		placeInitial: placements.With("initial"),
		placeHandoff: placements.With("handoff"),
		rejections: reg.Counter("fleet_rejections_total",
			"Placement attempts that found no satellite with both visibility and capacity."),
		epochs: reg.Counter("fleet_epochs_total",
			"Planner epochs executed."),
		indexQuery: reg.Quantile("fleet_index_query_seconds",
			"Wall-clock time of footprint-index scans: one observation per 64-session proposer block, plus one per planner chunk for the skipped shells its admission spill scanned. The sum covers every scan."),
		epochSec: reg.Quantile("fleet_epoch_seconds",
			"Wall-clock time of one full planner epoch."),
		replanQ: reg.Quantile("fleet_replan_ms",
			"Streaming quantile of per-session placement/replan proposal latency in wall-clock ms, sampled: only sessions whose ID is a multiple of 16 are timed."),
		transferQ: reg.Quantile("fleet_transfer_ms",
			"Streaming quantile of hand-off one-way state-transfer latency in simulated ms, every hand-off, folded in admission order once per planner chunk."),
	}
}
