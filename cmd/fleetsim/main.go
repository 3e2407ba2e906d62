// Command fleetsim exercises the fleet-scale control plane: it generates
// city-weighted session groups, runs the epoch-batched orchestrator over a
// multi-hour simulated window on a full constellation, and reports
// placement latency, hand-off rate, rejections, and the satellite load
// distribution — the paper's compute-as-a-service story at fleet scale.
//
// Usage:
//
//	fleetsim -name starlink -sessions 100000 -hours 2
//	fleetsim -sessions 5000 -hours 0.5 -csv fleet.csv -debug 127.0.0.1:8090
//	fleetsim -sessions 5000 -hours 2 -fault-seed 7 -sat-mtbf 100 -isl-flap 0.5
//	fleetsim -sessions 5000 -hours 1 -serve-rate 2000 -serve-policy all
//
// With -serve-rate (or -serve-replay) set, the request-serving layer
// (internal/serve) drives a city-weighted request load against the
// constellation alongside the session control plane, comparing routing
// policies and reporting p50/p99 end-to-end request latency, shedding by
// reason, and per-satellite utilization in a final serve report.
//
// With -sat-mtbf, -isl-flap, or -mig-fail set, a seeded chaos layer
// (internal/faults) injects satellite hard failures, ISL degradation
// windows, and migration transfer failures, and the report gains a chaos
// section accounting for every evacuation, retry, and rejection.
//
// Everything that shapes the simulation is seeded, so a given flag set
// (including -fault-seed) reproduces the same placements, hand-offs,
// faults, and CSV bit-for-bit; only the wall-clock latency figures vary
// between runs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/trace"
)

type options struct {
	name     string
	sessions int
	hours    float64
	stepSec  float64
	seed     int64
	spreadKm float64
	minUsers int
	maxUsers int
	churn    float64 // extra transient arrivals per second
	dwellSec float64 // mean lifetime of transient sessions
	demand   float64 // per-session cores demand
	csvPath  string
	debug    string
	progress bool

	timeline     string  // "auto", "off", or sim-second cadence
	timelineOut  string  // JSONL export path
	timelineHTML string  // HTML report path
	timelineCap  int     // ring capacity in frames
	sloReplanMs  float64 // p99 replan latency objective
	sloXferMs    float64 // p99 transfer latency objective
	sloAvail     float64 // session-availability ratio objective

	faultSeed  int64
	satMTBFHr  float64 // mean time between satellite hard failures (0 = off)
	satMTTRSec float64 // mean recovery time (negative = permanent)
	islFlapHr  float64 // per-pair ISL degradation windows per hour
	migFail    float64 // per-attempt migration transfer failure probability

	serve serveOptions // -serve-* request-serving layer
}

// chaosEnabled reports whether any fault channel is active.
func (o options) chaosEnabled() bool {
	return o.satMTBFHr > 0 || o.islFlapHr > 0 || o.migFail > 0
}

// faultConfig is the fault schedule the flags ask for. The fleet and each
// serve engine build their own injector from it: same seed, same schedule.
func (o options) faultConfig() faults.Config {
	return faults.Config{
		Seed:              o.faultSeed,
		SatMTBFHours:      o.satMTBFHr,
		SatMTTRSec:        o.satMTTRSec,
		ISLFlapPerHour:    o.islFlapHr,
		MigrationFailProb: o.migFail,
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.name, "name", "starlink", "constellation: starlink, kuiper, telesat")
	fs.IntVar(&o.sessions, "sessions", 100000, "concurrent long-lived sessions")
	fs.Float64Var(&o.hours, "hours", 2, "simulated window in hours")
	fs.Float64Var(&o.stepSec, "step", 60, "planner epoch in simulated seconds")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.spreadKm, "spread", 300, "max user distance from the group's anchor city (km)")
	fs.IntVar(&o.minUsers, "minusers", 2, "smallest group size")
	fs.IntVar(&o.maxUsers, "maxusers", 5, "largest group size")
	fs.Float64Var(&o.churn, "churn", 2, "transient session arrivals per second (0 disables churn)")
	fs.Float64Var(&o.dwellSec, "dwell", 1800, "mean transient session lifetime in seconds")
	fs.Float64Var(&o.demand, "demand", 0.5, "per-session compute demand in cores")
	fs.StringVar(&o.csvPath, "csv", "", "per-epoch CSV output path (empty = off)")
	fs.StringVar(&o.debug, "debug", "", "debug listen address for /metrics, /healthz, /debug/pprof (empty = off)")
	fs.BoolVar(&o.progress, "v", false, "log per-epoch progress to stderr")
	fs.StringVar(&o.timeline, "timeline", "auto",
		"flight-recorder cadence in simulated seconds, auto (one frame per epoch), or off")
	fs.StringVar(&o.timelineOut, "timeline-out", "", "timeline JSONL export path (empty = off)")
	fs.StringVar(&o.timelineHTML, "timeline-html", "", "timeline HTML report path (empty = off)")
	fs.IntVar(&o.timelineCap, "timeline-cap", obs.DefaultTimelineCapacity,
		"flight-recorder ring capacity in frames (oldest evicted beyond this)")
	fs.Float64Var(&o.sloReplanMs, "slo-replan-ms", 50, "SLO: p99 per-session replan latency bound in ms, over the sessions whose ID is a multiple of 16")
	fs.Float64Var(&o.sloXferMs, "slo-transfer-ms", 250, "SLO: p99 hand-off transfer latency bound in ms")
	fs.Float64Var(&o.sloAvail, "slo-avail", 0.999, "SLO: assigned/sessions availability floor in (0,1]")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-injection seed (independent of the workload seed)")
	fs.Float64Var(&o.satMTBFHr, "sat-mtbf", 0, "mean hours between per-satellite hard failures (0 = no failures; 100 ≈ 1%/h)")
	fs.Float64Var(&o.satMTTRSec, "sat-mttr", 0, "mean seconds to recover a failed satellite (0 = default 1800, negative = never)")
	fs.Float64Var(&o.islFlapHr, "isl-flap", 0, "per-satellite-pair ISL degradation windows per hour (0 = off)")
	fs.Float64Var(&o.migFail, "mig-fail", 0, "probability a migration transfer attempt fails in flight, in [0,1)")
	fs.Float64Var(&o.serve.rate, "serve-rate", 0, "request arrivals per second across all serve sites (0 = serving layer off)")
	fs.StringVar(&o.serve.policy, "serve-policy", "all", "request routing policy: nearest, least-loaded, sticky, or all (compare)")
	fs.IntVar(&o.serve.sites, "serve-sites", 40, "request sites = the N most populous cities")
	fs.Float64Var(&o.serve.serviceMs, "serve-service-ms", 20, "median request service time on one core in ms (lognormal)")
	fs.Float64Var(&o.serve.sigma, "serve-sigma", 0.5, "lognormal shape of the service-time distribution")
	fs.Float64Var(&o.serve.diurnal, "serve-diurnal", 0.6, "diurnal arrival-rate amplitude in [0,1) around the local evening peak")
	fs.IntVar(&o.serve.cores, "serve-cores", 8, "request-serving cores per satellite")
	fs.IntVar(&o.serve.queue, "serve-queue", 64, "per-satellite queue bound beyond the cores, at least 1 (-1 = unbounded; a zero-length queue cannot be expressed)")
	fs.Int64Var(&o.serve.seed, "serve-seed", 1, "request workload seed (independent of the fleet seed)")
	fs.StringVar(&o.serve.tracePath, "serve-trace", "", "write the request trace as JSONL (empty = off)")
	fs.StringVar(&o.serve.replay, "serve-replay", "", "replay a JSONL request trace instead of generating one")
	fs.Float64Var(&o.serve.availSLO, "slo-serve-avail", 0.99, "SLO: served/offered request availability floor per policy, in (0,1]")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	// NaN passes every range check below, and an infinite horizon or bound
	// simulates or judges nothing.
	var notFinite error
	fs.VisitAll(func(f *flag.Flag) {
		if v, ok := f.Value.(flag.Getter).Get().(float64); ok && notFinite == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			notFinite = fmt.Errorf("%s %v must be finite", f.Name, v)
		}
	})
	if notFinite != nil {
		return o, notFinite
	}
	if o.sessions <= 0 {
		return o, fmt.Errorf("sessions %d must be positive", o.sessions)
	}
	if o.hours <= 0 || o.stepSec <= 0 {
		return o, fmt.Errorf("hours %v and step %v must be positive", o.hours, o.stepSec)
	}
	if o.minUsers <= 0 || o.maxUsers < o.minUsers {
		return o, fmt.Errorf("bad user bounds [%d,%d]", o.minUsers, o.maxUsers)
	}
	if o.churn < 0 || o.dwellSec <= 0 {
		return o, fmt.Errorf("churn %v and dwell %v must be non-negative/positive", o.churn, o.dwellSec)
	}
	if o.demand <= 0 {
		return o, fmt.Errorf("demand %v must be positive", o.demand)
	}
	if o.satMTBFHr < 0 || o.islFlapHr < 0 {
		return o, fmt.Errorf("sat-mtbf %v and isl-flap %v must be non-negative", o.satMTBFHr, o.islFlapHr)
	}
	if o.migFail < 0 || o.migFail >= 1 {
		return o, fmt.Errorf("mig-fail %v outside [0,1)", o.migFail)
	}
	if _, err := o.timelineCadence(); err != nil {
		return o, err
	}
	if o.timelineCap <= 0 {
		return o, fmt.Errorf("timeline-cap %d must be positive", o.timelineCap)
	}
	if o.sloReplanMs <= 0 || o.sloXferMs <= 0 {
		return o, fmt.Errorf("slo-replan-ms %v and slo-transfer-ms %v must be positive", o.sloReplanMs, o.sloXferMs)
	}
	if o.sloAvail <= 0 || o.sloAvail > 1 {
		return o, fmt.Errorf("slo-avail %v outside (0,1]", o.sloAvail)
	}
	if err := o.serve.validate(); err != nil {
		return o, err
	}
	return o, nil
}

// timelineCadence resolves the -timeline flag: a recorder cadence in
// simulated seconds, or 0 when the flight recorder is off.
func (o options) timelineCadence() (float64, error) {
	switch o.timeline {
	case "off":
		return 0, nil
	case "auto", "":
		return o.stepSec, nil
	}
	sec, err := strconv.ParseFloat(o.timeline, 64)
	if err != nil || !(sec > 0) || math.IsInf(sec, 1) {
		return 0, fmt.Errorf("timeline %q must be auto, off, or a positive finite sim-second cadence", o.timeline)
	}
	return sec, nil
}

// slos builds the run's objectives from the flag bounds.
func (o options) slos() []obs.SLO {
	return []obs.SLO{
		{Name: fmt.Sprintf("p99 replan <= %gms", o.sloReplanMs), Kind: obs.SLOLatency,
			Metric: "fleet_replan_ms", Q: 0.99, Objective: o.sloReplanMs},
		{Name: fmt.Sprintf("p99 transfer <= %gms", o.sloXferMs), Kind: obs.SLOLatency,
			Metric: "fleet_transfer_ms", Q: 0.99, Objective: o.sloXferMs},
		{Name: fmt.Sprintf("availability >= %.2f%%", 100*o.sloAvail), Kind: obs.SLORatio,
			Metric: "fleet_sessions_assigned", TotalMetric: "fleet_sessions", Objective: o.sloAvail},
	}
}

// arrival is one transient session joining mid-run.
type arrival struct {
	at   float64
	sess *fleet.Session
}

// buildWorkload generates the seeded session population: o.sessions
// long-lived groups plus a Poisson stream of transient ones.
func buildWorkload(o options, horizonSec float64) (persistent []*fleet.Session, churn []arrival, err error) {
	times := trace.Poisson(o.seed+1, o.churn, horizonSec)
	groups, err := trace.Groups(trace.GroupConfig{
		Seed:         o.seed,
		Groups:       o.sessions + len(times),
		MinUsers:     o.minUsers,
		MaxUsers:     o.maxUsers,
		SpreadKm:     o.spreadKm,
		MaxAbsLatDeg: 55, // inside every preset's coverage band
	})
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(o.seed + 2))
	for i, g := range groups {
		s, err := fleet.NewSession(uint64(i+1), g.Users)
		if err != nil {
			return nil, nil, err
		}
		s.StateMB = trace.StateSizeMB(r, 64, 0.5)
		s.CoresDemand = o.demand
		if i < o.sessions {
			persistent = append(persistent, s)
			continue
		}
		at := times[i-o.sessions]
		s.ExpiresAt = at + r.ExpFloat64()*o.dwellSec
		churn = append(churn, arrival{at: at, sess: s})
	}
	return persistent, churn, nil
}

func run(out io.Writer, o options) error {
	c, err := constellation.Preset(o.name)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	var inj *faults.Injector
	if o.chaosEnabled() {
		inj, err = faults.New(c.Size(), o.faultConfig())
		if err != nil {
			return err
		}
	}
	orch, err := fleet.New(c, nil, fleet.Config{
		StepSec:          o.stepSec,
		ExpectedSessions: o.sessions,
		Registry:         reg,
		Faults:           inj,
	})
	if err != nil {
		return err
	}

	var tl *obs.Timeline
	slos := o.slos()
	if cadence, _ := o.timelineCadence(); cadence > 0 {
		tl = obs.NewTimeline(reg, obs.TimelineConfig{CadenceSec: cadence, Capacity: o.timelineCap})
	}

	horizonSec := o.hours * 3600
	var sr *serveRun
	if o.serve.enabled() {
		sr, err = newServeRun(o, c, reg, orch.Ephemeris(), horizonSec, out)
		if err != nil {
			return err
		}
		slos = append(slos, sr.slos(o.serve.availSLO)...)
	}

	if o.debug != "" {
		ln, err := net.Listen("tcp", o.debug)
		if err != nil {
			return fmt.Errorf("debug listen: %w", err)
		}
		defer ln.Close()
		obs.RegisterRuntimeMetrics(reg) // collected by the mux's pre-scrape hook
		var muxOpts []obs.DebugOption
		if tl != nil {
			muxOpts = append(muxOpts, obs.WithTimeline(tl), obs.WithSLOs(slos...))
		}
		go http.Serve(ln, obs.DebugMux(reg, muxOpts...))
		log.Printf("fleetsim: debug endpoint on http://%s/metrics", ln.Addr())
	}

	persistent, churn, err := buildWorkload(o, horizonSec)
	if err != nil {
		return err
	}
	if err := orch.SubmitBatch(persistent); err != nil {
		return err
	}
	if err := orch.Start(0); err != nil {
		return err
	}

	fmt.Fprintf(out, "%s: %d satellites — %d sessions + %.1f/s churn over %.1f h, %vs epochs (seed %d)\n",
		c.Name, c.Size(), o.sessions, o.churn, o.hours, o.stepSec, o.seed)

	epochs := int(horizonSec / o.stepSec)
	reps := make([]fleet.EpochReport, 0, epochs)
	for e, nextArrival := 0, 0; e < epochs; e++ {
		for nextArrival < len(churn) && churn[nextArrival].at <= orch.Now() {
			if err := orch.Submit(churn[nextArrival].sess); err != nil {
				return err
			}
			nextArrival++
		}
		rep, err := orch.Step()
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		if o.progress {
			log.Printf("t=%6.0fs sessions=%d assigned=%d handoffs=%d rejected=%d wall=%.2fs",
				rep.TSec, rep.Sessions, rep.Assigned, rep.Handoffs, rep.Rejections, rep.WallSec)
		}
		if sr != nil {
			if err := sr.advance(orch.Now()); err != nil {
				return err
			}
		}
		if tl != nil {
			tl.MaybeRecord(orch.Now())
		}
	}

	if o.csvPath != "" {
		series := epochSeries(reps, inj != nil)
		if err := writeFile(o.csvPath, func(w io.Writer) error { return plot.WriteCSV(w, series...) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "per-epoch series written to %s\n", o.csvPath)
	}

	if tl != nil {
		if err := exportTimeline(out, tl, o); err != nil {
			return err
		}
	}

	if err := report(out, orch, reportInputs{
		horizonSec: horizonSec,
		stepSec:    o.stepSec,
		reps:       reps,
		chaos:      inj != nil,
		tl:         tl,
		slos:       slos,
	}); err != nil {
		return err
	}
	// The serve report prints last: it contains only simulated quantities,
	// so `sed -n '/^serve report/,$p'` of two same-seed runs is diffable.
	if sr != nil {
		return serveReport(out, sr)
	}
	return nil
}

// writeFile creates path and renders into it through a buffered writer.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = render(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// exportTimeline writes the recorded frames to the requested files.
func exportTimeline(out io.Writer, tl *obs.Timeline, o options) error {
	if o.timelineOut != "" {
		if err := writeFile(o.timelineOut, tl.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(out, "timeline JSONL written to %s\n", o.timelineOut)
	}
	if o.timelineHTML != "" {
		title := fmt.Sprintf("fleetsim %s — %d sessions", o.name, o.sessions)
		if err := writeFile(o.timelineHTML, func(w io.Writer) error { return tl.WriteHTML(w, title) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "timeline HTML written to %s\n", o.timelineHTML)
	}
	return nil
}

// epochSeries is the per-epoch CSV: a column per report count, plus the
// fault columns when chaos is on.
func epochSeries(reps []fleet.EpochReport, chaos bool) []plot.Series {
	cols := []struct {
		name string
		of   func(fleet.EpochReport) float64
	}{
		{"sessions", func(r fleet.EpochReport) float64 { return float64(r.Sessions) }},
		{"assigned", func(r fleet.EpochReport) float64 { return float64(r.Assigned) }},
		{"placements", func(r fleet.EpochReport) float64 { return float64(r.Placements) }},
		{"handoffs", func(r fleet.EpochReport) float64 { return float64(r.Handoffs) }},
		{"rejections", func(r fleet.EpochReport) float64 { return float64(r.Rejections) }},
		{"departures", func(r fleet.EpochReport) float64 { return float64(r.Departures) }},
		{"mean_util", func(r fleet.EpochReport) float64 { return r.MeanUtilization }},
		{"down_sats", func(r fleet.EpochReport) float64 { return float64(r.DownSats) }},
		{"evacuations", func(r fleet.EpochReport) float64 { return float64(r.Evacuations) }},
		{"fault_events", func(r fleet.EpochReport) float64 { return float64(r.SatFailures + r.SatRecoveries) }},
	}
	if !chaos {
		cols = cols[:7]
	}
	x := make([]float64, len(reps))
	for i, r := range reps {
		x[i] = r.TSec
	}
	series := make([]plot.Series, len(cols))
	for j, c := range cols {
		y := make([]float64, len(reps))
		for i, r := range reps {
			y[i] = c.of(r)
		}
		series[j] = plot.Series{Name: c.name, X: x, Y: y}
	}
	return series
}

type reportInputs struct {
	horizonSec float64
	stepSec    float64             // the epoch each report covers
	reps       []fleet.EpochReport // every epoch's report, in order
	chaos      bool                // whether faults were injected

	tl   *obs.Timeline // nil when -timeline=off
	slos []obs.SLO
}

// report prints the fleet summary: population, hand-off pressure, placement
// latency quantiles, and how the load spread over the satellite-servers.
// The lifetime counts and the per-hand-off transfer mean come off one
// fleet.Stats snapshot; what needs the epochs one by one (the peak, the
// session-hours, the downtime sum, the assigned fraction's low point) comes
// off their reports. All of the chaos section is deterministic for a fixed
// flag set, so it is safe to diff across runs.
func report(out io.Writer, orch *fleet.Orchestrator, in reportInputs) error {
	st := orch.Stats()
	hours := in.horizonSec / 3600

	peakSessions, minFrac, finalFrac := 0, 1.0, 0.0
	sessionHours, downtimeSec, moves := 0.0, 0.0, 0
	for _, rep := range in.reps {
		peakSessions = max(peakSessions, rep.Sessions)
		sessionHours += float64(rep.Sessions) * in.stepSec / 3600
		downtimeSec += rep.Downtime.Mean() * float64(rep.Downtime.N())
		moves += rep.Downtime.N()
		if rep.Sessions > 0 {
			finalFrac = float64(rep.Assigned) / float64(rep.Sessions)
			minFrac = min(minFrac, finalFrac)
		}
	}
	handoffRate, meanDowntimeSec := 0.0, 0.0
	if sessionHours > 0 {
		handoffRate = float64(st.Handoffs) / sessionHours
	}
	if moves > 0 {
		meanDowntimeSec = downtimeSec / float64(moves)
	}

	fmt.Fprintf(out, "\nfleet report — %d epochs, %.1f h simulated\n", st.Epochs, hours)
	rows := [][]string{
		{"sessions (final / peak)", fmt.Sprintf("%d / %d", st.Sessions, peakSessions)},
		{"initial placements", fmt.Sprintf("%d", st.Placements)},
		{"hand-offs", fmt.Sprintf("%d (%.2f per session-hour)", st.Handoffs, handoffRate)},
		{"rejections", fmt.Sprintf("%d", st.Rejections)},
		{"departures", fmt.Sprintf("%d", st.Departures)},
		{"mean transfer latency", fmt.Sprintf("%.2f ms one-way", st.TransferMs.Mean)},
		{"mean migration downtime", fmt.Sprintf("%.1f ms", meanDowntimeSec*1000)},
		{"placement latency", fmt.Sprintf("p50 %.1f µs, p90 %.1f µs, p99 %.1f µs",
			st.ReplanMs.P50*1000, st.ReplanMs.P90*1000, st.ReplanMs.P99*1000)},
		{"satellites loaded", fmt.Sprintf("%d of %d", st.LoadedSats, st.Satellites)},
		{"core utilisation", fmt.Sprintf("mean %.1f%%, p50 %.1f%%, p90 %.1f%%, max %.1f%%",
			100*st.MeanUtilization, 100*st.UtilizationP50, 100*st.UtilizationP90, 100*st.UtilizationMax)},
		{"ephemeris cache", ephemLine(orch.Ephemeris().Stats())},
		{"frozen-graph routing", netgraphLine(netgraph.TotalStats())},
	}
	if in.tl != nil {
		ts := in.tl.Stats()
		rows = append(rows, []string{"flight recorder",
			fmt.Sprintf("%d frames in ring (cap %d, %d evicted), cadence %gs",
				ts.Frames, ts.Capacity, ts.Dropped, in.tl.Cadence())})
	}
	if err := plot.Table(out, nil, rows); err != nil {
		return err
	}
	if in.tl != nil {
		fmt.Fprintf(out, "\nSLO report — objectives over the recorded timeline\n")
		if err := obs.WriteSLOTable(out, obs.EvalSLOs(in.tl, in.slos...)); err != nil {
			return err
		}
	}
	if !in.chaos {
		return nil
	}

	fmt.Fprintf(out, "\nchaos report — injected faults and how the fleet absorbed them\n")
	crows := [][]string{
		{"satellite failures / recoveries", fmt.Sprintf("%d / %d (%d down at end)",
			st.SatFailures, st.SatRecoveries, st.DownSats)},
		{"evacuations (completed / deferred)", fmt.Sprintf("%d / %d", st.Evacuations, st.EvacuationsDeferred)},
		{"migration transfer failures", fmt.Sprintf("%d (backoff deferrals: %d)",
			st.MigrationFailures, st.BackoffDeferrals)},
		{"ISL-degraded transfers", fmt.Sprintf("%d (spilled to ground relay)", st.ISLDegradations)},
		{"assigned fraction (min / final)", fmt.Sprintf("%.1f%% / %.1f%%", 100*minFrac, 100*finalFrac)},
	}
	return plot.Table(out, nil, crows)
}

// ephemLine formats the ring's ephemeris-cache outcome. The ring requests
// each epoch instant once, when it enters slot K; every epoch's routing
// snapshot then re-reads slot 0's instant from the store, so a standalone
// run counts about one hit per epoch (telesat, 40 sessions, 0.5 h: 31 hits
// / 51 misses), and more when other consumers share the engine.
func ephemLine(s ephem.Stats) string {
	total := s.Hits + s.Misses
	if total == 0 {
		return "unused"
	}
	return fmt.Sprintf("%d hits / %d misses (%.1f%% hit rate, %d sat propagations)",
		s.Hits, s.Misses, 100*float64(s.Hits)/float64(total), s.PropagatedSats)
}

// netgraphLine formats the frozen-graph routing activity: the fleet's
// transfer pricing, which freezes one groundless snapshot in each epoch that
// prices a hand-off. The serve engines read no routing graph.
func netgraphLine(s netgraph.Stats) string {
	if s.Queries() == 0 && s.Freezes == 0 {
		return "unused"
	}
	return fmt.Sprintf("%d queries (%d path / %d sssp / %d isl), %d snapshot freezes",
		s.Queries(), s.PathQueries, s.SSSPQueries, s.ISLQueries, s.Freezes)
}

func main() {
	log.SetOutput(os.Stderr)
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fatal(err)
	}
	if err := run(os.Stdout, o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetsim:", err)
	os.Exit(1)
}
