package netgraph

// Frozen-vs-legacy routing benchmarks feeding BENCH_netgraph.json. Each
// benchmark times both implementations internally (time.Now deltas) and
// reports the ratio via b.ReportMetric, so CI's -benchtime 1x smoke run
// still yields meaningful speedup and allocation metrics.

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/par"
)

// benchCities are the queried sources; the full ground set adds a world
// grid of passive stations so the graph has a realistic ground segment
// (real LEO operators run hundreds of gateway sites) where the legacy
// per-expansion visibility rescan actually bites.
var benchCities = []geo.LatLon{
	{LatDeg: 40.71, LonDeg: -74.01},  // New York
	{LatDeg: 51.51, LonDeg: -0.13},   // London
	{LatDeg: -33.92, LonDeg: 18.42},  // Cape Town
	{LatDeg: 35.68, LonDeg: 139.69},  // Tokyo
	{LatDeg: -23.55, LonDeg: -46.63}, // São Paulo
}

func benchGrounds() []geo.LatLon {
	grounds := append([]geo.LatLon(nil), benchCities...)
	for lat := -60.0; lat <= 60; lat += 15 {
		for lon := -180.0; lon < 180; lon += 15 {
			grounds = append(grounds, geo.LatLon{LatDeg: lat, LonDeg: lon})
		}
	}
	return grounds
}

func benchSnapshot(b *testing.B) (*Network, *Snapshot) {
	b.Helper()
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		b.Fatal(err)
	}
	n := New(c, benchGrounds())
	s := n.At(0)
	s.Freeze() // steady-state comparison: the one-time freeze is timed separately
	return n, s
}

// BenchmarkShortestPath compares warm frozen-graph point-to-point queries
// against the legacy closure-driven Dijkstra on the Starlink preset.
func BenchmarkShortestPath(b *testing.B) {
	n, s := benchSnapshot(b)
	const reps = 4
	var frozenNs, legacyNs int64
	var frozenSum, legacySum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for gi := 1; gi < len(benchCities); gi++ {
				p, err := s.ShortestPath(n.GroundNode(0), n.GroundNode(gi))
				if err != nil {
					b.Fatal(err)
				}
				frozenSum += p.OneWayMs
			}
		}
		frozenNs += time.Since(start).Nanoseconds()
		start = time.Now()
		for r := 0; r < reps; r++ {
			for gi := 1; gi < len(benchCities); gi++ {
				p, err := s.legacyShortestPath(n.GroundNode(0), n.GroundNode(gi))
				if err != nil {
					b.Fatal(err)
				}
				legacySum += p.OneWayMs
			}
		}
		legacyNs += time.Since(start).Nanoseconds()
	}
	b.StopTimer()
	if frozenSum != legacySum {
		b.Fatalf("frozen/legacy latency sums diverged: %.17g vs %.17g", frozenSum, legacySum)
	}
	queries := float64(b.N * reps * (len(benchCities) - 1))
	b.ReportMetric(float64(frozenNs)/queries, "frozen-ns/op")
	b.ReportMetric(float64(legacyNs)/queries, "legacy-ns/op")
	b.ReportMetric(float64(legacyNs)/float64(frozenNs), "frozen-speedup-x")
}

// BenchmarkLatencyToAllSats compares warm frozen SSSP against the legacy
// per-call-allocating pass, and reports the steady-state allocations of the
// pooled Into path (must stay at zero).
func BenchmarkLatencyToAllSats(b *testing.B) {
	_, s := benchSnapshot(b)
	buf := make([]float64, 0, s.net.Sats())
	const reps = 2
	var frozenNs, legacyNs int64
	var frozenSum, legacySum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for gi := range benchCities {
				out := s.LatencyToAllSatsInto(gi, buf)
				frozenSum += out[0] + out[len(out)-1]
			}
		}
		frozenNs += time.Since(start).Nanoseconds()
		start = time.Now()
		for r := 0; r < reps; r++ {
			for gi := range benchCities {
				out := s.legacyLatencyToAllSats(gi)
				legacySum += out[0] + out[len(out)-1]
			}
		}
		legacyNs += time.Since(start).Nanoseconds()
	}
	b.StopTimer()
	if frozenSum != legacySum {
		b.Fatalf("frozen/legacy SSSP sums diverged: %.17g vs %.17g", frozenSum, legacySum)
	}
	queries := float64(b.N * reps * len(benchCities))
	b.ReportMetric(float64(frozenNs)/queries, "frozen-ns/op")
	b.ReportMetric(float64(legacyNs)/queries, "legacy-ns/op")
	b.ReportMetric(float64(legacyNs)/float64(frozenNs), "frozen-speedup-x")
	allocs := testing.AllocsPerRun(20, func() { s.LatencyToAllSatsInto(0, buf) })
	b.ReportMetric(allocs, "steady-allocs/op")
}

// naiveFanout is the strategy the adaptive fan-out replaced: one goroutine
// per source regardless of available CPUs, per-row allocations. Benchmarks
// time it as the rejected alternative on hosts without spare parallelism.
func naiveFanout(s *Snapshot, gis []int) [][]float64 {
	out := make([][]float64, len(gis))
	var wg sync.WaitGroup
	wg.Add(len(gis))
	for i := range gis {
		go func(slot int) {
			defer wg.Done()
			out[slot] = s.LatencyToAllSatsInto(gis[slot], nil)
		}(i)
	}
	wg.Wait()
	return out
}

// BenchmarkAllSourcesLatencies measures what the adaptive fan-out buys over
// the strategy it rejected on this host. With spare CPUs the fan-out runs
// parallel and the baseline is the caller's serial per-source loop — the
// genuine multi-core speedup. Without them (single-CPU hosts, CPU-quota'd
// containers) the fan-out falls back to serial and the baseline is the
// naive goroutine-per-source fan-out it replaced, run under the inflated
// GOMAXPROCS such containers default to (the pre-fix failure mode: worker
// threads time-slicing one core). Both sides take the minimum over many
// interleaved repetitions so scheduler noise doesn't decide the ratio.
//
// On a VM the reading also depends on whether the second vCPU is awake: a
// 1.5 ms parallel section cannot amortise waking a halted one. Alone (its
// serial arm's garbage keeps the collector's workers, and so the vCPU, busy)
// it reads 1.5–1.7 on two cores; under GOGC=off, or right after benchmarks
// that leave a large heap goal, it reads 0.97–0.99 (EXPERIMENTS.md
// "Receipts"). The fan-out costs ≈ 2 % then and pays ≈ 60 % otherwise.
func BenchmarkAllSourcesLatencies(b *testing.B) {
	_, s := benchSnapshot(b)
	f := s.frozen()
	gis := make([]int, len(benchCities))
	for i := range gis {
		gis[i] = i
	}
	parallelChosen := fanoutWorkers(len(gis), f.nodes) > 1
	if !parallelChosen && runtime.GOMAXPROCS(0) <= 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	baseline := func() [][]float64 {
		if parallelChosen {
			out := make([][]float64, len(gis))
			for i, gi := range gis {
				out[i] = s.LatencyToAllSatsInto(gi, nil)
			}
			return out
		}
		return naiveFanout(s, gis)
	}
	const reps = 32
	parNs, baseNs := int64(math.MaxInt64), int64(math.MaxInt64)
	var parSum, baseSum float64
	checksum := func(rows [][]float64) float64 {
		var sum float64
		for _, r := range rows {
			sum += r[0] + r[len(r)-1]
		}
		return sum
	}
	timeOnce := func(dst *int64, sum *float64, f func() [][]float64) {
		start := time.Now()
		rows := f()
		if ns := time.Since(start).Nanoseconds(); ns < *dst {
			*dst = ns
		}
		*sum = checksum(rows)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < reps; r++ {
			if r&1 == 0 {
				timeOnce(&parNs, &parSum, func() [][]float64 { return s.AllSourcesLatencies(gis) })
				timeOnce(&baseNs, &baseSum, baseline)
			} else {
				timeOnce(&baseNs, &baseSum, baseline)
				timeOnce(&parNs, &parSum, func() [][]float64 { return s.AllSourcesLatencies(gis) })
			}
		}
	}
	b.StopTimer()
	if parSum != baseSum {
		b.Fatalf("fan-out/baseline sums diverged: %.17g vs %.17g", parSum, baseSum)
	}
	b.ReportMetric(float64(parNs), "parallel-ns/op")
	b.ReportMetric(float64(baseNs), "serial-ns/op")
	if par.Workers() > 1 {
		b.ReportMetric(float64(baseNs)/float64(parNs), "parallel-speedup-x")
	}
}

// BenchmarkISLShortest compares the pooled static-CSR ISL query against the
// legacy hand-rolled grid Dijkstra.
func BenchmarkISLShortest(b *testing.B) {
	n, s := benchSnapshot(b)
	// Pairs within the first shell: the +grid has no cross-shell links, so
	// cross-shell pairs would be ErrNoPath.
	shell0 := n.Constellation.Shells[0].Planes * n.Constellation.Shells[0].SatsPerPlane
	pairs := [][2]int{{0, shell0 - 1}, {1, shell0 / 2}, {shell0 / 3, 2 * shell0 / 3}}
	var frozenNs, legacyNs int64
	var frozenSum, legacySum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for _, pr := range pairs {
			p, err := ISLShortest(n.Grid, s.satPos, pr[0], pr[1])
			if err != nil {
				b.Fatal(err)
			}
			frozenSum += p.OneWayMs
		}
		frozenNs += time.Since(start).Nanoseconds()
		start = time.Now()
		for _, pr := range pairs {
			p, err := legacyISLShortest(n.Grid, s.satPos, pr[0], pr[1])
			if err != nil {
				b.Fatal(err)
			}
			legacySum += p.OneWayMs
		}
		legacyNs += time.Since(start).Nanoseconds()
	}
	b.StopTimer()
	if frozenSum != legacySum {
		b.Fatalf("frozen/legacy ISL sums diverged: %.17g vs %.17g", frozenSum, legacySum)
	}
	queries := float64(b.N * len(pairs))
	b.ReportMetric(float64(frozenNs)/queries, "frozen-ns/op")
	b.ReportMetric(float64(legacyNs)/queries, "legacy-ns/op")
	b.ReportMetric(float64(legacyNs)/float64(frozenNs), "frozen-speedup-x")
}

// BenchmarkSnapshotFreeze times the one-time per-snapshot CSR build that
// every later query amortises.
func BenchmarkSnapshotFreeze(b *testing.B) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		b.Fatal(err)
	}
	n := New(c, benchGrounds())
	snaps := make([]*Snapshot, b.N)
	for i := range snaps {
		snaps[i] = n.At(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps[i].Freeze()
	}
}
