// Command figures regenerates every table and figure from the paper's
// evaluation. Each figure writes a CSV under -out and prints an ASCII
// rendering plus the summary quantities the paper quotes.
//
// Usage:
//
//	figures -fig all            # everything, paper scale
//	figures -fig 1 -fast        # one figure, reduced sampling
//	figures -fig feasibility    # the §4 table
//	figures -trace run.json     # also export a Chrome trace of the run
//	go test -bench . -run '^$' | figures -benchjson -   # bench -> BENCH_obs.json
//
// Every run prints a per-figure timing table on stderr and writes
// <out>/runinfo.json with durations, sample counts, and Go/host metadata.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/power"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 1..7, feasibility, eo, ablation, weather, matchmaking, churn, capacity, edgeload, power, cdnlat, servepolicy, all")
		out      = flag.String("out", "results", "output directory for CSV files")
		fast     = flag.Bool("fast", false, "reduced sampling for quick runs")
		traceOut = flag.String("trace", "", "write a Chrome trace-event file of the run (open in about://tracing)")
		benchIn  = flag.String("benchjson", "", "post-process `go test -bench` output (path or - for stdin) instead of running figures")
		benchOut = flag.String("benchout", "BENCH_obs.json", "output path for -benchjson")
	)
	flag.Parse()

	if *benchIn != "" {
		if err := benchJSON(*benchIn, *benchOut); err != nil {
			fatal(err)
		}
		return
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	r := runner{out: *out, fast: *fast, tracer: obs.NewTracer(nil)}
	netgraph.SetTracer(r.tracer) // snapshot-freeze spans join the run trace
	// Flight recorder over the process-default registry (where the shared
	// ephemeris engine and frozen-graph routing report); one frame is
	// recorded per figure at its elapsed wall-clock offset.
	tl := obs.NewTimeline(obs.Default(), obs.TimelineConfig{})

	jobs := map[string]func() error{
		"1":           r.fig1,
		"2":           r.fig2,
		"3":           r.fig3,
		"4":           r.fig4,
		"5":           r.fig5,
		"6":           r.fig67, // 6 and 7 share one simulation
		"7":           r.fig67,
		"feasibility": r.feasibility,
		"eo":          r.eo,
		"ablation":    r.ablation,
		"weather":     r.weather,
		"matchmaking": r.matchmaking,
		"churn":       r.churn,
		"capacity":    r.capacity,
		"edgeload":    r.edgeload,
		"power":       r.power,
		"cdnlat":      r.cdnlat,
		"servepolicy": r.servepolicy,
	}
	order := []string{"1", "2", "3", "4", "5", "6", "feasibility", "eo", "ablation", "weather", "matchmaking", "churn", "capacity", "edgeload", "power", "cdnlat", "servepolicy"}

	var names []string
	switch *fig {
	case "all":
		names = order
	default:
		if _, ok := jobs[*fig]; !ok {
			fatal(fmt.Errorf("unknown figure %q", *fig))
		}
		names = []string{*fig}
	}

	info := newRunInfo(*fast)
	info.GeneratedUnix = time.Now().Unix()
	startIters := experiments.Progress()
	runStart := time.Now()
	for _, name := range names {
		if err := r.runFigure(name, jobs[name], &info); err != nil {
			fatal(fmt.Errorf("fig %s: %w", name, err))
		}
		tl.Record(time.Since(runStart).Seconds())
	}
	info.TotalSeconds = time.Since(runStart).Seconds()
	info.SweepIterations = experiments.Progress() - startIters
	es := experiments.EphemStats()
	info.EphemCacheHits, info.EphemCacheMisses = es.Hits, es.Misses
	if total := es.Hits + es.Misses; total > 0 {
		fmt.Fprintf(os.Stderr, "ephem cache: %d hits / %d misses (%.1f%% hit rate, %d satellite propagations)\n",
			es.Hits, es.Misses, 100*float64(es.Hits)/float64(total), es.PropagatedSats)
	}
	ns := netgraph.TotalStats()
	info.NetgraphFreezes = ns.Freezes
	info.NetgraphFrozenEdges = ns.FrozenEdges
	info.NetgraphQueries = ns.Queries()
	info.TimelineFrames = tl.Stats().Frames
	if ns.PathQueries > 0 {
		q := netgraph.QueryQuantiles("path", 0.50, 0.95, 0.99)
		info.PathQueryP50Ms, info.PathQueryP95Ms, info.PathQueryP99Ms = q[0], q[1], q[2]
		fmt.Fprintf(os.Stderr, "netgraph path query latency: p50 %.4g ms, p95 %.4g ms, p99 %.4g ms\n",
			q[0], q[1], q[2])
	}
	for _, res := range obs.EvalSLOs(tl, figureSLOs(ns)...) {
		info.SLOs = append(info.SLOs,
			sloSummary{Name: res.SLO.Name, Met: res.Met, Compliance: res.Compliance})
	}
	if err := writeTimeline(filepath.Join(*out, "timeline.jsonl"), tl); err != nil {
		fatal(err)
	}
	if ns.Freezes > 0 {
		fmt.Fprintf(os.Stderr, "netgraph: %d snapshot freezes (%d edges), %d routing queries (%d path / %d sssp / %d isl)\n",
			ns.Freezes, ns.FrozenEdges, ns.Queries(), ns.PathQueries, ns.SSSPQueries, ns.ISLQueries)
	}

	printTimingTable(info)
	runinfoPath := filepath.Join(*out, "runinfo.json")
	if err := writeRunInfo(runinfoPath, info); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", runinfoPath)
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut, r.tracer); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *traceOut)
	}
}

// figureSLOs are the objectives judged over a figures run: routing-query
// latency stays interactive whenever the run actually routed.
func figureSLOs(ns netgraph.Stats) []obs.SLO {
	var slos []obs.SLO
	if ns.PathQueries > 0 {
		slos = append(slos, obs.SLO{Name: "p99 path query <= 5ms", Kind: obs.SLOLatency,
			Metric: "netgraph_query_ms", Labels: map[string]string{"kind": "path"},
			Q: 0.99, Objective: 5})
	}
	if ns.SSSPQueries > 0 {
		slos = append(slos, obs.SLO{Name: "p99 sssp query <= 50ms", Kind: obs.SLOLatency,
			Metric: "netgraph_query_ms", Labels: map[string]string{"kind": "sssp"},
			Q: 0.99, Objective: 50})
	}
	return slos
}

// writeTimeline exports the recorded frames as JSONL next to the figures.
func writeTimeline(path string, tl *obs.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tl.WriteJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return err
}

// runFigure wraps one figure job in a span and records its timing and sweep
// volume into the run info.
func (r runner) runFigure(name string, job func() error, info *runInfo) error {
	sp := r.tracer.Start("fig:" + name)
	before := experiments.Progress()
	start := time.Now()
	err := job()
	seconds := time.Since(start).Seconds()
	samples := experiments.Progress() - before
	sp.SetAttr("samples", fmt.Sprint(samples))
	sp.End()
	info.Figures = append(info.Figures, figTiming{Name: name, Seconds: seconds, Samples: samples})
	fmt.Fprintf(os.Stderr, "fig %s: %.2fs (%d sweep iterations)\n", name, seconds, samples)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

type runner struct {
	out    string
	fast   bool
	tracer *obs.Tracer // nil-safe: an unset tracer records nothing
}

func (r runner) sweep() experiments.LatitudeSweepConfig {
	cfg := experiments.LatitudeSweepConfig{}
	if r.fast {
		cfg.LatStepDeg = 3
		cfg.SampleEverySec = 300
		cfg.DurationSec = 3600
	}
	return cfg
}

func (r runner) writeCSV(name string, ragged bool, series ...plot.Series) error {
	path := filepath.Join(r.out, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if ragged {
		err = plot.WriteCSVRagged(f, series...)
	} else {
		err = plot.WriteCSV(f, series...)
	}
	if err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

func (r runner) fig1() error {
	fmt.Println("== Figure 1: max and min RTT to reachable satellite-servers vs latitude ==")
	results, err := experiments.Fig1(r.sweep())
	if err != nil {
		return err
	}
	var all []plot.Series
	for _, res := range results {
		minS, maxS := res.Series()
		all = append(all, minS, maxS)
		fmt.Println("  " + experiments.Fig1Check(res))
	}
	if err := r.writeCSV("fig1_rtt_vs_latitude.csv", true, all...); err != nil {
		return err
	}
	return plot.ASCIIChart(os.Stdout, "  RTT (ms) vs latitude (deg)", 100, 18, all...)
}

func (r runner) fig2() error {
	fmt.Println("== Figure 2: satellite-servers within range vs latitude ==")
	results, err := experiments.Fig2(r.sweep())
	if err != nil {
		return err
	}
	var all []plot.Series
	for _, res := range results {
		avg, minS, maxS := res.Series()
		all = append(all, avg, minS, maxS)
		// Summarise the paper's prose claims.
		within, typical := 0, 0
		for _, row := range res.Rows {
			if row.LatDeg <= 56 {
				within++
				if row.MeanCount > 40 {
					typical++
				}
			}
		}
		fmt.Printf("  %s: %d/%d serviced latitudes average >40 reachable satellites\n",
			res.Constellation, typical, within)
	}
	if err := r.writeCSV("fig2_reachable_vs_latitude.csv", true, all...); err != nil {
		return err
	}
	return plot.ASCIIChart(os.Stdout, "  reachable satellites vs latitude (deg)", 100, 18, all...)
}

func (r runner) fig3() error {
	fmt.Println("== Figure 3 / §3.2: meetup-server placement ==")
	cfg := experiments.Fig3Config{}
	if r.fast {
		cfg = experiments.Fig3Config{SampleEverySec: 300, DurationSec: 3600}
	}
	var rows [][]string
	for _, sc := range []experiments.Fig3Scenario{experiments.WestAfricaScenario(), experiments.TriContinentScenario()} {
		res, err := experiments.Fig3(sc, cfg)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			res.Scenario.Name,
			res.Scenario.Constellation,
			fmt.Sprintf("%.1f", res.TerrestrialRTTMs),
			res.TerrestrialDC,
			fmt.Sprintf("%.1f", res.InOrbitRTTMs),
			fmt.Sprintf("%.1f", res.InOrbitBestRTTMs),
			fmt.Sprintf("%.2fx", res.Improvement),
			fmt.Sprintf("%.1f", res.StickyPremiumMs),
		})
	}
	return plot.Table(os.Stdout, []string{
		"scenario", "constellation", "terrestrial ms", "best DC", "in-orbit ms", "oracle ms", "improvement", "sticky premium ms",
	}, rows)
}

func (r runner) fig4() error {
	fmt.Println("== Figure 4: satellites invisible from the n largest cities ==")
	results, err := experiments.Fig4(experiments.Fig4Config{})
	if err != nil {
		return err
	}
	var all []plot.Series
	for _, res := range results {
		all = append(all, res.Series())
		last := res.Invisible[len(res.Invisible)-1]
		fmt.Printf("  %s: %d/%d (%.0f%%) invisible with 1000 cities\n",
			res.Constellation, last, res.Total, 100*float64(last)/float64(res.Total))
	}
	if err := r.writeCSV("fig4_invisible_vs_cities.csv", true, all...); err != nil {
		return err
	}
	return plot.ASCIIChart(os.Stdout, "  invisible satellites vs number of cities", 100, 16, all...)
}

func (r runner) fig5() error {
	fmt.Println("== Figure 5: map of invisible Starlink satellites (n=1000 cities) ==")
	results, err := experiments.Fig5(experiments.ConstellationSet{Starlink: true}, 1000, 0)
	if err != nil {
		return err
	}
	res := results[0]
	south := 0
	var lats, lons []float64
	for _, s := range res.InvisibleSats {
		if s.LatDeg < 0 {
			south++
		}
		lats = append(lats, s.LatDeg)
		lons = append(lons, s.LonDeg)
	}
	fmt.Printf("  %d invisible of %d; %.0f%% in the southern hemisphere\n",
		len(res.InvisibleSats), res.Total, 100*float64(south)/float64(len(res.InvisibleSats)))
	if err := r.writeCSV("fig5_invisible_positions.csv", false, plot.Series{Name: "lat", X: lons, Y: lats}); err != nil {
		return err
	}
	return experiments.RenderFig5(res, 140, 40).Render(os.Stdout, "  '+' = city, 'O' = invisible satellite")
}

func (r runner) fig67() error {
	fmt.Println("== Figures 6 & 7: hand-off dynamics, Sticky vs MinMax ==")
	cfg := experiments.Fig67Config{}
	if r.fast {
		cfg = experiments.Fig67Config{Groups: 6, DurationSec: 3600, StepSec: 5}
	}
	res, err := experiments.Fig67(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("  groups simulated: %d\n", res.GroupsSimulated)
	fmt.Printf("  hand-offs: MinMax %d, Sticky %d (%.1fx fewer)\n",
		res.HandoffsMinMax, res.HandoffsSticky, float64(res.HandoffsMinMax)/float64(res.HandoffsSticky))
	fmt.Printf("  median time between hand-offs: MinMax %.0f s, Sticky %.0f s (%.1fx longer; paper: 41 s vs 164 s)\n",
		res.IntervalsMinMax.Median(), res.IntervalsSticky.Median(), res.MedianRatio())
	fmt.Printf("  mean group RTT: MinMax %.1f ms, Sticky %.1f ms (premium %.1f ms; paper: ~1.4 ms)\n",
		res.MeanRTTMinMax, res.MeanRTTSticky, res.MeanRTTSticky-res.MeanRTTMinMax)
	fmt.Printf("  state transfer ms: MinMax median %.1f p90 %.1f | Sticky median %.1f p90 %.1f\n",
		res.TransfersMinMax.Median(), res.TransfersMinMax.Quantile(0.9),
		res.TransfersSticky.Median(), res.TransfersSticky.Quantile(0.9))

	mm6, st6 := res.Fig6Series()
	if err := r.writeCSV("fig6_handoff_interval_cdf.csv", true, mm6, st6); err != nil {
		return err
	}
	if err := plot.ASCIIChart(os.Stdout, "  Fig 6: CDF of time between hand-offs (s)", 100, 16, mm6, st6); err != nil {
		return err
	}
	mm7, st7 := res.Fig7Series()
	if err := r.writeCSV("fig7_transfer_latency_cdf.csv", true, mm7, st7); err != nil {
		return err
	}
	return plot.ASCIIChart(os.Stdout, "  Fig 7: CDF of state-transfer latency (ms)", 100, 16, mm7, st7)
}

func (r runner) feasibility() error {
	fmt.Println("== §4: feasibility of in-orbit compute ==")
	table, _, err := experiments.FeasibilityTable()
	if err != nil {
		return err
	}
	fmt.Println(indent(table, "  "))
	return nil
}

func (r runner) eo() error {
	fmt.Println("== §3.3: sensing time vs in-orbit pre-processing ==")
	rows, err := experiments.EOSweep(0.08, nil)
	if err != nil {
		return err
	}
	var table [][]string
	for _, row := range rows {
		table = append(table, []string{
			fmt.Sprintf("%.0fx", row.PreprocessFactor),
			fmt.Sprintf("%.1f%%", row.SensingDuty*100),
			fmt.Sprintf("%.0f%%", row.DownlinkSavings*100),
		})
	}
	return plot.Table(os.Stdout, []string{"preprocess factor", "sensing duty", "downlink saved"}, table)
}

func (r runner) ablation() error {
	fmt.Println("== Ablations ==")
	base := experiments.Fig67Config{Groups: 6, DurationSec: 1800, StepSec: 5}
	if !r.fast {
		base = experiments.Fig67Config{Groups: 10, DurationSec: 3600, StepSec: 2}
	}

	fmt.Println("  -- Sticky knobs (latency band x pool size) --")
	rows, err := experiments.StickyAblation(nil, []int{1, 5}, base)
	if err != nil {
		return err
	}
	var table [][]string
	for _, row := range rows {
		table = append(table, []string{
			fmt.Sprintf("%.0f%%", row.LatencyBand*100),
			fmt.Sprintf("%d", row.PoolSize),
			fmt.Sprintf("%.0f", row.MedianHoldSec),
			fmt.Sprintf("%d", row.Handoffs),
			fmt.Sprintf("%.1f", row.MeanRTTMs),
		})
	}
	if err := plot.Table(os.Stdout, []string{"band", "pool", "median hold s", "handoffs", "mean RTT ms"}, table); err != nil {
		return err
	}

	fmt.Println("  -- Transfer path: +grid ISL vs line-of-sight bound --")
	tr, err := experiments.TransferAblation(base)
	if err != nil {
		return err
	}
	if tr.ISL.N() > 0 {
		fmt.Printf("  ISL median %.1f ms vs LoS median %.1f ms; mean inflation %.1fx over %d transfers\n",
			tr.ISL.Median(), tr.LineOfSight.Median(), tr.MeanInflation, tr.ISL.N())
	}

	fmt.Println("  -- Elevation mask sensitivity (Starlink) --")
	masks, err := experiments.MaskAblation(nil, 5, 10)
	if err != nil {
		return err
	}
	var mtable [][]string
	for _, row := range masks {
		mtable = append(mtable, []string{
			fmt.Sprintf("%.0f°", row.MaskDeg),
			fmt.Sprintf("%.1f", row.MeanReachable),
			fmt.Sprintf("%.1f", row.WorstNearestRTTMs),
			fmt.Sprintf("%d", row.UncoveredSamples),
		})
	}
	return plot.Table(os.Stdout, []string{"mask", "mean reachable", "worst nearest RTT ms", "uncovered samples"}, mtable)
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}

func (r runner) weather() error {
	fmt.Println("== Extension: weather availability (the paper's §6 caveat) ==")
	rows, err := experiments.WeatherStudy(nil)
	if err != nil {
		return err
	}
	var table [][]string
	for _, row := range rows {
		table = append(table, []string{
			row.Climate,
			row.Band.String(),
			fmt.Sprintf("%.0f dB", row.MarginDB),
			fmt.Sprintf("%.1f mm/h", row.OutageMmH),
			fmt.Sprintf("%.3f%%", row.Availability*100),
		})
	}
	return plot.Table(os.Stdout, []string{"climate", "band", "margin", "outage rain", "availability"}, table)
}

func (r runner) matchmaking() error {
	fmt.Println("== Extension: matchmaking reach (§3.2 framing) ==")
	cfg := experiments.MatchmakingConfig{}
	if r.fast {
		cfg.PairsPerBucket = 8
	}
	rows, err := experiments.Matchmaking(cfg)
	if err != nil {
		return err
	}
	var table [][]string
	for _, row := range rows {
		table = append(table, []string{
			fmt.Sprintf("%.0f km", row.SeparationKm),
			fmt.Sprintf("%.0f%%", row.PlayableTerrestrial*100),
			fmt.Sprintf("%.0f%%", row.PlayableInOrbit*100),
			fmt.Sprintf("%.0f ms", row.MeanTerrestrialMs),
			fmt.Sprintf("%.0f ms", row.MeanInOrbitMs),
		})
	}
	return plot.Table(os.Stdout, []string{
		"player separation", "playable (fiber+DC)", "playable (in-orbit)", "mean RTT fiber", "mean RTT orbit",
	}, table)
}

func (r runner) churn() error {
	fmt.Println("== Extension: route dynamics over the constellation ==")
	dur, step := 1800.0, 15.0
	if r.fast {
		dur, step = 600, 30
	}
	rows, err := experiments.ChurnStudy(dur, step)
	if err != nil {
		return err
	}
	var table [][]string
	for _, row := range rows {
		table = append(table, []string{
			row.Name,
			fmt.Sprintf("%.0f km", row.GeodesicKm),
			fmt.Sprintf("%.0f s", row.MedianPathLifeS),
			fmt.Sprintf("%d", row.PathChanges),
			fmt.Sprintf("%.1f ms", row.MeanLatencyMs),
			fmt.Sprintf("%.1f ms", row.JitterMs),
			fmt.Sprintf("%.2fx", row.Stretch),
		})
	}
	return plot.Table(os.Stdout, []string{
		"route", "geodesic", "median path life", "changes", "mean one-way", "jitter", "stretch",
	}, table)
}

func (r runner) capacity() error {
	fmt.Println("== Extension: fleet capacity vs urban demand ==")
	rows, err := experiments.CapacityStudy(nil, 500)
	if err != nil {
		return err
	}
	var table [][]string
	for _, row := range rows {
		table = append(table, []string{
			fmt.Sprintf("%.1f%%", row.AdoptionPct),
			fmt.Sprintf("%.1f%%", row.SatisfiedPct),
			fmt.Sprintf("%.1f%%", row.FleetUtilPct),
			fmt.Sprintf("%d", row.IdleSats),
			fmt.Sprintf("%s (%.0f%%)", row.WorstCity, row.WorstSatisfiedPct),
		})
	}
	return plot.Table(os.Stdout, []string{
		"adoption", "demand satisfied", "fleet utilization", "idle sats", "worst city",
	}, table)
}

func (r runner) edgeload() error {
	fmt.Println("== Extension: edge request latency under load (Lagos, 64-core servers) ==")
	rates := []float64{100, 1000, 4000, 8000}
	if r.fast {
		rates = []float64{100, 4000}
	}
	rows, err := experiments.EdgeLoadStudy(rates)
	if err != nil {
		return err
	}
	var table [][]string
	for _, row := range rows {
		table = append(table, []string{
			row.Policy,
			fmt.Sprintf("%.0f/s", row.ArrivalPerSec),
			fmt.Sprintf("%.1f ms", row.P50Ms),
			fmt.Sprintf("%.1f ms", row.P99Ms),
			fmt.Sprintf("%d", row.ServersUsed),
			fmt.Sprintf("%.0f%%", row.MaxUtilization*100),
		})
	}
	return plot.Table(os.Stdout, []string{"policy", "arrival", "p50", "p99", "servers", "busiest"}, table)
}

func (r runner) power() error {
	fmt.Println("== Extension: seasonal power budget (550 km / 53°, DL325 @225 W) ==")
	rows, err := power.SeasonalSweep(power.DefaultStarlinkBudget(), power.ServerLoad{Name: "DL325@225", DrawW: 225},
		550, 53, 0, nil)
	if err != nil {
		return err
	}
	var table [][]string
	for _, row := range rows {
		table = append(table, []string{
			fmt.Sprintf("%d", row.DayOfYear),
			fmt.Sprintf("%.0f%%", row.EclipseFraction*100),
			fmt.Sprintf("%.0f W", row.AvailableW),
			fmt.Sprintf("%+.0f W", row.HeadroomW),
		})
	}
	if err := plot.Table(os.Stdout, []string{"day of year", "eclipse", "available", "headroom (bus+server)"}, table); err != nil {
		return err
	}
	fmt.Printf("  worst-season headroom: %+.0f W — §4's \"power is perhaps the biggest impediment\", seasonally resolved\n",
		power.WorstSeasonHeadroom(rows))
	return nil
}

func (r runner) cdnlat() error {
	fmt.Println("== Extension: city-level RTT distribution, CDN vs in-orbit edge ==")
	rows, err := experiments.CDNStudy(1000)
	if err != nil {
		return err
	}
	var table [][]string
	for _, row := range rows {
		table = append(table, []string{
			row.Name,
			fmt.Sprintf("%.1f ms", row.P50Ms),
			fmt.Sprintf("%.1f ms", row.P95Ms),
			fmt.Sprintf("%.1f ms", row.MaxMs),
			fmt.Sprintf("%.1f%%", row.Over100msPct),
		})
	}
	return plot.Table(os.Stdout, []string{"edge", "p50", "p95", "max", ">100 ms cities"}, table)
}

func (r runner) servepolicy() error {
	fmt.Println("== Extension: request-routing policies vs offered load (12 cities, 2-core servers) ==")
	rates := []float64{250, 1000, 4000}
	if r.fast {
		rates = []float64{250, 4000}
	}
	rows, err := experiments.ServePolicyStudy(rates)
	if err != nil {
		return err
	}
	var table [][]string
	perPolicy := map[string]*struct{ p99, shed, util []float64 }{}
	var policyOrder []string
	for _, row := range rows {
		table = append(table, []string{
			row.Policy,
			fmt.Sprintf("%.0f/s", row.RatePerSec),
			fmt.Sprintf("%.1f ms", row.P50Ms),
			fmt.Sprintf("%.1f ms", row.P99Ms),
			fmt.Sprintf("%.1f%%", row.ShedPct),
			fmt.Sprintf("%d", row.SatsUsed),
			fmt.Sprintf("%.0f%%", row.MaxUtilPct),
		})
		s, ok := perPolicy[row.Policy]
		if !ok {
			s = &struct{ p99, shed, util []float64 }{}
			perPolicy[row.Policy] = s
			policyOrder = append(policyOrder, row.Policy)
		}
		s.p99 = append(s.p99, row.P99Ms)
		s.shed = append(s.shed, row.ShedPct)
		s.util = append(s.util, row.MaxUtilPct)
	}
	var series []plot.Series
	for _, name := range policyOrder {
		s := perPolicy[name]
		series = append(series,
			plot.Series{Name: name + "_p99_ms", X: rates, Y: s.p99},
			plot.Series{Name: name + "_shed_pct", X: rates, Y: s.shed},
			plot.Series{Name: name + "_max_util_pct", X: rates, Y: s.util},
		)
	}
	if err := r.writeCSV("fig_serve_policies.csv", false, series...); err != nil {
		return err
	}
	return plot.Table(os.Stdout, []string{"policy", "offered", "p50", "p99", "shed", "sats", "busiest"}, table)
}
