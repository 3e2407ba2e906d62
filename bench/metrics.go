package main

// The five workloads, in report order.
const (
	wlFleetSteady   = "fleet-steady"
	wlServeHeavy    = "serve-heavy"
	wlFlagshipChaos = "flagship-chaos"
	wlRoutingSweep  = "routing-sweep"
	wlPaperHandoff  = "paper-handoff"
)

// metric declares one number the harness reports. BENCHMARK.json mirrors
// this table (bench_test.go pins the two against each other): the
// end-to-end metrics defined on every workload are its `end_to_end` list,
// everything else its `per_layer` list.
type metric struct {
	name, unit string
	// higher marks a throughput-style metric; the default is lower-is-better.
	higher bool
	// bound is the share of the baseline median an end-to-end metric may
	// worsen by before a change counts as a regression; 0 on layer metrics.
	bound float64
	// on lists the workloads the metric is defined on; nil means all. On
	// the others it is not printed, and reads 0 on the contract's result
	// line. An end-to-end metric with a non-nil list is gated by -selftest
	// but sits in BENCHMARK.json's per_layer list, because the driver
	// requires every end_to_end metric on every workload.
	on []string
}

func (m metric) endToEnd() bool { return m.bound > 0 }

// universal reports whether the metric belongs in BENCHMARK.json's
// end_to_end list.
func (m metric) universal() bool { return m.endToEnd() && m.on == nil }

func (m metric) appliesTo(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	fleetWorkloads = []string{wlFleetSteady, wlFlagshipChaos}
	serveWorkloads = []string{wlServeHeavy, wlFlagshipChaos}
	flagshipOnly   = []string{wlFlagshipChaos}
	sweepOnly      = []string{wlRoutingSweep}
	paperOnly      = []string{wlPaperHandoff}
	groupWorkloads = []string{wlFleetSteady, wlFlagshipChaos, wlPaperHandoff}
)

// metrics is the full declaration table. End-to-end metrics come from the
// untraced pass; every other metric from the traced pass.
var metrics = []metric{
	// End to end, every workload. All host time. The bounds on the timings
	// are what the 2-core reference host's own noise allows: same-seed runs
	// sit within 2-5 % of each other most of the time, with whole runs
	// 20-35 % slower while the host is contended (README.md).
	{name: "wall_s", unit: "s", bound: 0.25},
	{name: "cpu_s", unit: "s", bound: 0.25},
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.20},
	{name: "alloc_gb", unit: "GB", bound: 0.05},
	{name: "work_per_s", unit: "1/s", higher: true, bound: 0.25},

	// End to end, workload-specific.
	{name: "session_epochs_per_s", unit: "1/s", higher: true, bound: 0.25, on: fleetWorkloads},
	{name: "requests_per_s", unit: "1/s", higher: true, bound: 0.25, on: serveWorkloads},
	{name: "epoch_ms_p50", unit: "ms", bound: 0.25, on: fleetWorkloads},
	{name: "epoch_ms_p90", unit: "ms", bound: 0.25, on: fleetWorkloads},
	{name: "route_queries_per_s", unit: "1/s", higher: true, bound: 0.10, on: sweepOnly},
	{name: "handoff_steps_per_s", unit: "1/s", higher: true, bound: 0.15, on: paperOnly},

	// ephem
	{name: "ephem.misses", unit: "count"},
	{name: "ephem.hits", unit: "count", higher: true},
	{name: "ephem.hit_ratio", unit: "ratio", higher: true},
	{name: "ephem.propagated_sats", unit: "count"},
	{name: "ephem.propagate_busy_s", unit: "s"},
	{name: "ephem.frames_live", unit: "count"},
	{name: "ephem.cold_frame_us", unit: "us"},
	{name: "ephem.hit_frame_ns", unit: "ns"},

	// netgraph
	{name: "netgraph.freezes", unit: "count"},
	{name: "netgraph.delta_freezes", unit: "count", higher: true},
	{name: "netgraph.delta_ratio", unit: "ratio", higher: true},
	{name: "netgraph.freeze_busy_s", unit: "s"},
	{name: "netgraph.full_freeze_ms", unit: "ms"},
	{name: "netgraph.delta_freeze_ms", unit: "ms"},
	{name: "netgraph.path_queries", unit: "count"},
	{name: "netgraph.sssp_queries", unit: "count"},
	{name: "netgraph.isl_queries", unit: "count"},
	{name: "netgraph.path_busy_s", unit: "s"},
	{name: "netgraph.sssp_busy_s", unit: "s"},
	{name: "netgraph.isl_busy_s", unit: "s"},
	{name: "netgraph.path_us_p50", unit: "us"},
	{name: "netgraph.path_us_p99", unit: "us"},
	{name: "netgraph.sssp_us_p50", unit: "us"},
	{name: "netgraph.sssp_us_p99", unit: "us"},

	// fleet
	{name: "fleet.step_busy_s", unit: "s", on: fleetWorkloads},
	{name: "fleet.step_calls", unit: "count", on: fleetWorkloads},
	{name: "fleet.submit_busy_s", unit: "s", on: fleetWorkloads},
	{name: "fleet.start_s", unit: "s", on: fleetWorkloads},
	{name: "fleet.us_per_session_epoch", unit: "us", on: fleetWorkloads},
	{name: "fleet.index_busy_s", unit: "s", on: fleetWorkloads},
	{name: "fleet.replan_us_p50", unit: "us", on: fleetWorkloads},
	{name: "fleet.replan_us_p99", unit: "us", on: fleetWorkloads},
	{name: "fleet.planner_chunks", unit: "count", on: fleetWorkloads},
	{name: "fleet.sssp_rows_batched", unit: "count", higher: true, on: fleetWorkloads},
	{name: "fleet.sssp_rows_lazy", unit: "count", on: fleetWorkloads},
	{name: "fleet.batched_ratio", unit: "ratio", higher: true, on: fleetWorkloads},
	{name: "fleet.step_netgraph_busy_s", unit: "s", on: fleetWorkloads},
	{name: "fleet.step_ephem_busy_s", unit: "s", on: fleetWorkloads},
	{name: "fleet.handoffs", unit: "count", on: fleetWorkloads},
	{name: "fleet.rejections", unit: "count", on: fleetWorkloads},
	{name: "fleet.assigned_frac", unit: "ratio", higher: true, on: fleetWorkloads},
	{name: "fleet.handoffs_per_session_hour", unit: "1/h", on: fleetWorkloads},

	// serve
	{name: "serve.generate_s", unit: "s", on: serveWorkloads},
	{name: "serve.requests", unit: "count", on: serveWorkloads},
	{name: "serve.new_engine_s", unit: "s", on: serveWorkloads},
	{name: "serve.feed_s", unit: "s", on: serveWorkloads},
	{name: "serve.run_busy_s.nearest", unit: "s", on: serveWorkloads},
	{name: "serve.run_busy_s.sticky", unit: "s", on: serveWorkloads},
	{name: "serve.run_busy_s.least-loaded", unit: "s", on: serveWorkloads},
	{name: "serve.req_per_s.nearest", unit: "1/s", higher: true, on: serveWorkloads},
	{name: "serve.req_per_s.sticky", unit: "1/s", higher: true, on: serveWorkloads},
	{name: "serve.req_per_s.least-loaded", unit: "1/s", higher: true, on: serveWorkloads},
	{name: "serve.parallel_slices", unit: "count", higher: true, on: serveWorkloads},
	{name: "serve.serial_slices", unit: "count", on: serveWorkloads},
	{name: "serve.workers", unit: "count", higher: true, on: serveWorkloads},
	{name: "serve.shed_frac", unit: "ratio", on: serveWorkloads},
	{name: "serve.sim_p50_ms.nearest", unit: "ms", on: serveWorkloads},
	{name: "serve.sim_p50_ms.sticky", unit: "ms", on: serveWorkloads},
	{name: "serve.sim_p50_ms.least-loaded", unit: "ms", on: serveWorkloads},
	{name: "serve.sim_p99_ms.nearest", unit: "ms", on: serveWorkloads},
	{name: "serve.sim_p99_ms.sticky", unit: "ms", on: serveWorkloads},
	{name: "serve.sim_p99_ms.least-loaded", unit: "ms", on: serveWorkloads},

	// faults
	{name: "faults.new_s", unit: "s", on: flagshipOnly},
	{name: "faults.sat_failures", unit: "count", on: flagshipOnly},
	{name: "faults.evacuations", unit: "count", on: flagshipOnly},
	{name: "faults.evacuations_deferred", unit: "count", on: flagshipOnly},
	{name: "faults.migration_failures", unit: "count", on: flagshipOnly},
	{name: "faults.isl_degradations", unit: "count", on: flagshipOnly},

	// obs
	{name: "obs.timeline_record_busy_s", unit: "s", on: flagshipOnly},
	{name: "obs.timeline_frames", unit: "count", on: flagshipOnly},
	{name: "obs.timeline_export_s", unit: "s", on: flagshipOnly},
	{name: "obs.timeline_export_bytes", unit: "B", on: flagshipOnly},
	{name: "obs.series", unit: "count"},
	{name: "obs.registry_snapshot_ms", unit: "ms"},
	{name: "obs.trace_overhead_frac", unit: "ratio"},

	// meetup / experiments
	{name: "experiments.fig67_s", unit: "s", on: paperOnly},
	{name: "meetup.group_steps", unit: "count", on: paperOnly},
	{name: "meetup.handoffs_minmax", unit: "count", on: paperOnly},
	{name: "meetup.handoffs_sticky", unit: "count", on: paperOnly},
	{name: "meetup.sticky_median_ratio_x", unit: "x", higher: true, on: paperOnly},

	// set-up layers
	{name: "constellation.build_s", unit: "s"},
	{name: "trace.groups_s", unit: "s", on: groupWorkloads},

	// runtime
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "runtime.heap_peak_mb", unit: "MB"},
}

// passMetrics returns the declared metrics a pass of the given workload
// reports, in table order.
func passMetrics(workload string, traced bool) []metric {
	var out []metric
	for _, m := range metrics {
		if m.endToEnd() != traced && m.appliesTo(workload) {
			out = append(out, m)
		}
	}
	return out
}

// driverMetrics returns the metrics the BENCHMARK.json contract expects on
// the result line: its end_to_end list on the untraced pass and its
// per_layer list — on every workload, zero where undefined — on the traced
// one.
func driverMetrics(traced bool) []metric {
	var out []metric
	for _, m := range metrics {
		if m.universal() != traced {
			out = append(out, m)
		}
	}
	return out
}

// values is one pass's measurements by metric name.
type values map[string]float64
