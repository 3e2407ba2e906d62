package main

import (
	"strings"
	"time"

	"repro/internal/ephem"
	"repro/internal/netgraph"
	"repro/internal/obs"
)

// layerMetrics fills the per-layer metrics that come from the registries'
// deltas over the measured phase: counts, and the *_seconds histogram sums
// the program already keeps (these add across workers). end is the
// snapshot the deltas were taken at, for the gauges.
func (r *run) layerMetrics(d, end flat) {
	ratio := func(part, rest float64) float64 {
		if part+rest == 0 {
			return 0
		}
		return part / (part + rest)
	}
	v := r.v
	hits, misses := d["ephem_cache_hits_total"], d["ephem_cache_misses_total"]
	v["ephem.hits"] = hits
	v["ephem.misses"] = misses
	v["ephem.hit_ratio"] = ratio(hits, misses)
	v["ephem.propagated_sats"] = d["ephem_propagated_satellites_total"]
	v["ephem.propagate_busy_s"] = d.ephemBusy()
	v["ephem.frames_live"] = end["ephem_cache_frames"]

	// Every network of a workload — the fleet's and serve's private ones
	// too — reports to obs.Default(), one of the two registries in d.
	freezes, deltas := d["netgraph_freeze_total"], d["netgraph_freeze_delta_total"]
	v["netgraph.freezes"] = freezes
	v["netgraph.delta_freezes"] = deltas
	v["netgraph.delta_ratio"] = ratio(deltas, freezes-deltas)
	v["netgraph.freeze_busy_s"] = d.freezeBusy()
	for _, kind := range []string{"path", "sssp", "isl"} {
		v["netgraph."+kind+"_queries"] = d["netgraph_queries_total{kind="+kind+"}"]
		v["netgraph."+kind+"_busy_s"] = d.queryBusy(kind)
	}
	// The sketches are process-wide; set-up issues no routing queries, so
	// they describe the measured phase.
	for _, kind := range []string{"path", "sssp"} {
		q := netgraph.QueryQuantiles(kind, 0.50, 0.99)
		v["netgraph."+kind+"_us_p50"] = q[0] * 1000
		v["netgraph."+kind+"_us_p99"] = q[1] * 1000
	}

	v["fleet.index_busy_s"] = d["fleet_index_query_seconds"]
	v["fleet.planner_chunks"] = d["fleet_planner_chunks_total"]
	batched := d["fleet_transfer_sssp_rows_total{mode=batched}"]
	lazy := d["fleet_transfer_sssp_rows_total{mode=lazy}"]
	v["fleet.sssp_rows_batched"] = batched
	v["fleet.sssp_rows_lazy"] = lazy
	v["fleet.batched_ratio"] = ratio(batched, lazy)

	series := 0
	for k := range d {
		if !strings.HasSuffix(k, "#n") {
			series++
		}
	}
	v["obs.series"] = float64(series)
}

// layerTable answers "where does the run spend its time" from outside, in
// CPU seconds over the measured phase. ephem and netgraph are the busy sums
// the registries keep, which include what runs inside Step, RunUntil and
// Fig67 and add across workers as CPU time does. Every other layer is the
// CPU time of its sites minus that nested busy time; what no site covers
// is the harness itself (checks, digest input, loop bookkeeping).
func (r *run) layerTable(d flat, cpu float64) []layerCPU {
	own := map[string]float64{"ephem": d.ephemBusy(), "netgraph": d.netgraphBusy()}
	rest := cpu
	for _, s := range r.t.sites {
		layer, _, _ := strings.Cut(s.name, ".")
		rest -= s.phase.cpu
		if layer != "ephem" && layer != "netgraph" {
			own[layer] += s.phase.self
		}
	}
	own["harness"] = rest
	var rows []layerCPU
	for _, layer := range []string{"ephem", "netgraph", "fleet", "serve", "obs", "experiments", "harness"} {
		if busy := own[layer]; busy > 1e-6 {
			rows = append(rows, layerCPU{Layer: layer, BusyS: busy, Share: busy / cpu})
		}
	}
	return rows
}

// probes measures unit costs on instants the run did not touch, so that
// count × unit cost bounds what ephem and netgraph spend inside Step and
// RunUntil, which cannot be split from outside.
func (r *run) probes(v values) error {
	const probeT0 = 1e6 // far beyond any simulated horizon

	eng := ephem.New(r.c, ephem.Config{Registry: obs.NewRegistry()})
	const coldFrames, hitFrames = 40, 20000
	start := time.Now()
	for i := 0; i < coldFrames; i++ {
		eng.SnapshotAt(probeT0 + 7.5*float64(i))
	}
	v["ephem.cold_frame_us"] = float64(time.Since(start).Microseconds()) / coldFrames
	start = time.Now()
	for i := 0; i < hitFrames; i++ {
		eng.SnapshotAt(probeT0)
	}
	v["ephem.hit_frame_ns"] = float64(time.Since(start).Nanoseconds()) / hitFrames

	// Freezes over the ground set the workload's snapshots carry, at their
	// cadence.
	net := netgraph.New(r.c, r.grounds).UseObs(obs.NewRegistry())
	const fullFreezes, deltaFreezes = 5, 20
	start = time.Now()
	for i := 0; i < fullFreezes; i++ {
		net.At(probeT0 + 1000*float64(i)).Freeze()
	}
	v["netgraph.full_freeze_ms"] = float64(time.Since(start).Microseconds()) / 1000 / fullFreezes
	snap := net.At(2 * probeT0)
	snap.Freeze()
	start = time.Now()
	for i := 1; i <= deltaFreezes; i++ {
		snap = net.AtAfter(snap, 2*probeT0+r.cadenceSec*float64(i))
		snap.Freeze()
	}
	v["netgraph.delta_freeze_ms"] = float64(time.Since(start).Microseconds()) / 1000 / deltaFreezes

	const snapshots = 20
	start = time.Now()
	for i := 0; i < snapshots; i++ {
		for _, reg := range r.t.regs {
			reg.Snapshot()
		}
	}
	v["obs.registry_snapshot_ms"] = float64(time.Since(start).Microseconds()) / 1000 / snapshots
	return nil
}

// traceOverhead is the traced pass's own estimate of what tracing cost it:
// the registry snapshots it timed plus its span count times a probed
// per-span cost, as a share of the measured wall. The two-pass report
// replaces it with the measured traced/untraced - 1.
func (r *run) traceOverhead() float64 {
	const probeSpans = 20000
	tr := obs.NewTracer(nil)
	root := tr.Start("probe")
	start := time.Now()
	for i := 0; i < probeSpans; i++ {
		root.Child("probe").End()
	}
	perSpan := time.Since(start).Seconds() / probeSpans
	spans := float64(r.t.spans.Len()) + float64(r.t.spans.Dropped())
	return (r.t.snapshotBusy.Seconds() + spans*perSpan) / r.v["wall_s"]
}
