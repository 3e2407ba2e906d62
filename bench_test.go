package inorbit

// The benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus the ablations DESIGN.md calls out. Each bench
// runs a reduced-scale version of the corresponding experiment (the
// paper-scale run lives in cmd/figures) and reports the headline metric via
// b.ReportMetric so `go test -bench` output doubles as a results table.

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/constellation"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/meetup"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/visibility"
)

// fastSweep keeps Fig 1/2 benches to a few hundred ms per iteration.
func fastSweep() experiments.LatitudeSweepConfig {
	return experiments.LatitudeSweepConfig{
		LatStepDeg:     5,
		SampleEverySec: 600,
		DurationSec:    3600,
	}
}

func BenchmarkFig1RTTvsLatitude(b *testing.B) {
	var worstNear, worstFar float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig1(fastSweep())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Constellation != "Starlink Phase I" {
				continue
			}
			for _, row := range r.Rows {
				if !row.Covered {
					continue
				}
				if row.MinRTTMs > worstNear {
					worstNear = row.MinRTTMs
				}
				if row.MaxRTTMs > worstFar {
					worstFar = row.MaxRTTMs
				}
			}
		}
	}
	b.ReportMetric(worstNear, "worst-nearest-rtt-ms")
	b.ReportMetric(worstFar, "worst-farthest-rtt-ms")
}

func BenchmarkFig2ReachableCount(b *testing.B) {
	var meanAt30 float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig2(fastSweep())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Constellation != "Starlink Phase I" {
				continue
			}
			for _, row := range r.Rows {
				if row.LatDeg == 30 {
					meanAt30 = row.MeanCount
				}
			}
		}
	}
	b.ReportMetric(meanAt30, "mean-reachable-at-30deg")
}

func BenchmarkFig3MeetupServer(b *testing.B) {
	cfg := experiments.Fig3Config{SampleEverySec: 600, DurationSec: 3600}
	var improvement float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(experiments.WestAfricaScenario(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		improvement = res.Improvement
	}
	b.ReportMetric(improvement, "in-orbit-improvement-x")
}

func BenchmarkFig3TriContinent(b *testing.B) {
	cfg := experiments.Fig3Config{SampleEverySec: 900, DurationSec: 3600}
	var inOrbit float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(experiments.TriContinentScenario(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		inOrbit = res.InOrbitRTTMs
	}
	b.ReportMetric(inOrbit, "in-orbit-rtt-ms")
}

func BenchmarkFig4InvisibleSats(b *testing.B) {
	var starlinkFrac float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig4(experiments.Fig4Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Constellation == "Starlink Phase I" {
				starlinkFrac = float64(r.Invisible[len(r.Invisible)-1]) / float64(r.Total)
			}
		}
	}
	b.ReportMetric(starlinkFrac*100, "starlink-invisible-pct")
}

func BenchmarkFig5InvisibleMap(b *testing.B) {
	var southern float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig5(experiments.ConstellationSet{Starlink: true}, 1000, 0)
		if err != nil {
			b.Fatal(err)
		}
		south, total := 0, 0
		for _, s := range results[0].InvisibleSats {
			total++
			if s.LatDeg < 0 {
				south++
			}
		}
		if total > 0 {
			southern = 100 * float64(south) / float64(total)
		}
	}
	b.ReportMetric(southern, "southern-invisible-pct")
}

// fig67Bench runs a reduced Fig 6/7 study (fewer, shorter sessions).
func fig67Bench() experiments.Fig67Config {
	return experiments.Fig67Config{Groups: 4, DurationSec: 1800, StepSec: 5}
}

func BenchmarkFig6HandoffCDF(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig67(fig67Bench())
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.MedianRatio()
	}
	b.ReportMetric(ratio, "sticky-over-minmax-median-hold")
}

func BenchmarkFig7StateTransferCDF(b *testing.B) {
	var stickyMedian float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig67(fig67Bench())
		if err != nil {
			b.Fatal(err)
		}
		if res.TransfersSticky.N() > 0 {
			stickyMedian = res.TransfersSticky.Median()
		}
	}
	b.ReportMetric(stickyMedian, "sticky-transfer-median-ms")
}

func BenchmarkFeasibilityTable(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, rep, err := experiments.FeasibilityTable()
		if err != nil {
			b.Fatal(err)
		}
		ratio = rep.CostRatio
	}
	b.ReportMetric(ratio, "orbit-over-dc-cost-x")
}

func BenchmarkEOPreprocessing(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.EOSweep(0.08, nil)
		if err != nil {
			b.Fatal(err)
		}
		gain = rows[3].SensingDuty / rows[0].SensingDuty // 10x factor vs raw
	}
	b.ReportMetric(gain, "sensing-gain-at-10x")
}

func BenchmarkAblationStickyBand(b *testing.B) {
	base := experiments.Fig67Config{Groups: 3, DurationSec: 1200, StepSec: 5}
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StickyAblation([]float64{0.05, 0.5}, []int{5}, base)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 2 && rows[0].MedianHoldSec > 0 {
			spread = rows[1].MedianHoldSec / rows[0].MedianHoldSec
		}
	}
	b.ReportMetric(spread, "hold-gain-50pct-over-5pct-band")
}

func BenchmarkAblationStickyPool(b *testing.B) {
	base := experiments.Fig67Config{Groups: 3, DurationSec: 1200, StepSec: 5}
	var handoffsDelta float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StickyAblation([]float64{0.10}, []int{1, 10}, base)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 2 {
			handoffsDelta = float64(rows[1].Handoffs - rows[0].Handoffs)
		}
	}
	b.ReportMetric(handoffsDelta, "handoff-delta-pool10-vs-1")
}

func BenchmarkAblationISLvsLoS(b *testing.B) {
	cfg := experiments.Fig67Config{Groups: 3, DurationSec: 1200, StepSec: 5}
	var inflation float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.TransferAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		inflation = res.MeanInflation
	}
	b.ReportMetric(inflation, "isl-over-los-inflation-x")
}

func BenchmarkAblationElevationMask(b *testing.B) {
	var reachable15over45 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MaskAblation([]float64{15, 45}, 10, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 2 && rows[1].MeanReachable > 0 {
			reachable15over45 = rows[0].MeanReachable / rows[1].MeanReachable
		}
	}
	b.ReportMetric(reachable15over45, "reachable-15deg-over-45deg")
}

// Micro-benchmarks for the hot paths underneath every experiment.

func BenchmarkServiceEdgeQuery(b *testing.B) {
	svc, err := New(Starlink)
	if err != nil {
		b.Fatal(err)
	}
	loc := LatLon{LatDeg: 9.06, LonDeg: 7.49}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Edge(float64(i%7200), loc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeetupMinMaxSelect(b *testing.B) {
	svc, err := New(Starlink)
	if err != nil {
		b.Fatal(err)
	}
	p, err := svc.Meetup([]LatLon{
		{LatDeg: 9.06, LonDeg: 7.49},
		{LatDeg: 3.87, LonDeg: 11.52},
		{LatDeg: 5.60, LonDeg: -0.19},
	})
	if err != nil {
		b.Fatal(err)
	}
	snap := svc.Ephemeris().SnapshotAt(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SelectMinMax(snap); err != nil && err != meetup.ErrNoCandidate {
			b.Fatal(err)
		}
	}
}

func BenchmarkVirtualServerHour(b *testing.B) {
	svc, err := New(Starlink)
	if err != nil {
		b.Fatal(err)
	}
	users := []LatLon{{LatDeg: 9.06, LonDeg: 7.49}, {LatDeg: 8.5, LonDeg: 9.0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs, err := svc.PlaceVirtualServer(users, Sticky, State{SessionMB: 32, GenericMB: 512, DirtyRateMBps: 4})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := vs.Run(0, 600, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionWeather(b *testing.B) {
	var tropical8dB float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WeatherStudy(nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Climate == "tropical" && r.MarginDB == 8 {
				tropical8dB = r.Availability
			}
		}
	}
	b.ReportMetric(tropical8dB*100, "tropical-8dB-availability-pct")
}

func BenchmarkExtensionMatchmaking(b *testing.B) {
	cfg := experiments.MatchmakingConfig{PairsPerBucket: 6, Separations: []float64{6000}}
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Matchmaking(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gap = rows[0].PlayableInOrbit - rows[0].PlayableTerrestrial
	}
	b.ReportMetric(gap*100, "playability-gap-pct-at-6000km")
}

func BenchmarkExtensionChurn(b *testing.B) {
	var meanLife float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ChurnStudy(600, 30)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.MedianPathLifeS
		}
		meanLife = sum / float64(len(rows))
	}
	b.ReportMetric(meanLife, "mean-median-path-life-s")
}

func BenchmarkExtensionCapacity(b *testing.B) {
	var utilAt5pct float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CapacityStudy([]float64{0.05}, 300)
		if err != nil {
			b.Fatal(err)
		}
		utilAt5pct = rows[0].FleetUtilPct
	}
	b.ReportMetric(utilAt5pct, "fleet-util-pct-at-5pct-adoption")
}

func BenchmarkExtensionEdgeLoad(b *testing.B) {
	var spillP99 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.EdgeLoadStudy([]float64{8000})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Policy == "least-loaded" {
				spillP99 = r.P99Ms
			}
		}
	}
	b.ReportMetric(spillP99, "least-loaded-p99-ms-at-8000rps")
}

func BenchmarkExtensionSeasonalPower(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := power.SeasonalSweep(power.DefaultStarlinkBudget(),
			power.ServerLoad{DrawW: 225}, 550, 53, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		worst = power.WorstSeasonHeadroom(rows)
	}
	b.ReportMetric(worst, "worst-season-headroom-w")
}

func BenchmarkExtensionCDNDistribution(b *testing.B) {
	var orbitalP95 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CDNStudy(500)
		if err != nil {
			b.Fatal(err)
		}
		orbitalP95 = rows[1].P95Ms
	}
	b.ReportMetric(orbitalP95, "orbital-p95-ms-over-cities")
}

// Fleet-scale control-plane benchmarks (PR 2).

// BenchmarkFleetIndexRebuild times re-bucketing all 4,409 satellites — the
// per-epoch fixed cost of the footprint index.
func BenchmarkFleetIndexRebuild(b *testing.B) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := visibility.NewIndex(visibility.NewObserver(c), 0)
	if err != nil {
		b.Fatal(err)
	}
	snap := c.Snapshot(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Rebuild(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetEpoch runs real planner epochs over Starlink with a 5k
// session population — the steady-state cost of the control plane, scaled
// down 20× from the 100k cmd/fleetsim run.
func BenchmarkFleetEpoch(b *testing.B) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		b.Fatal(err)
	}
	orch, err := fleet.New(c, nil, fleet.Config{Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	groups, err := trace.Groups(trace.GroupConfig{
		Seed: 7, Groups: 5000, MinUsers: 2, MaxUsers: 5, SpreadKm: 300, MaxAbsLatDeg: 55,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, g := range groups {
		s, err := fleet.NewSession(uint64(i+1), g.Users)
		if err != nil {
			b.Fatal(err)
		}
		if err := orch.Submit(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := orch.Start(0); err != nil {
		b.Fatal(err)
	}
	if _, err := orch.Step(); err != nil { // absorb the initial placement wave
		b.Fatal(err)
	}
	handoffs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := orch.Step()
		if err != nil {
			b.Fatal(err)
		}
		handoffs += rep.Handoffs
	}
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs-per-epoch")
}

// BenchmarkFleetTableOps measures the ID-ordered session table under
// concurrent mixed put/get/delete traffic, closed by the ordered read the
// planner's detection starts from. Ascending IDs append to the slab (racing
// goroutines put a few just below its end); descending IDs all land below
// its last ID, so the read merges every one of them in.
func BenchmarkFleetTableOps(b *testing.B) {
	for _, tc := range []struct {
		name string
		id   func(n uint64) uint64
	}{
		{"ascending", func(n uint64) uint64 { return n }},
		{"descending", func(n uint64) uint64 { return math.MaxUint64 - n }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tab := fleet.NewTable(0)
			var next atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := next.Add(1)
					id := tc.id(n)
					if err := tab.Put(&fleet.Session{ID: id}); err != nil {
						b.Error(err)
						return
					}
					if _, ok := tab.Get(id); !ok {
						b.Error("lost session")
						return
					}
					if n%4 == 0 {
						tab.Delete(id)
					}
				}
			})
			if got, want := len(tab.Ordered()), b.N-b.N/4; got != want {
				b.Fatalf("ordered read holds %d sessions, want %d", got, want)
			}
		})
	}
}
