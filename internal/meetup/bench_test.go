package meetup

// BestRouted benchmark feeding BENCH_netgraph.json: repeated same-snapshot
// group placement on the Starlink preset, timing the adaptive multi-source
// fan-out against the strategy it rejects on this host (see the netgraph
// AllSourcesLatencies benchmark for the rationale): with spare CPUs the
// baseline is a serial per-user loop, without them it is the naive
// goroutine-per-user fan-out under the inflated GOMAXPROCS that CPU-quota'd
// containers default to. Minimum over interleaved repetitions keeps
// scheduler noise out of the ratio.

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/par"
)

// BenchmarkBestRouted places a six-user transcontinental group on a warm
// frozen snapshot.
func BenchmarkBestRouted(b *testing.B) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		b.Fatal(err)
	}
	users := []geo.LatLon{
		{LatDeg: 40.71, LonDeg: -74.01},  // New York
		{LatDeg: 51.51, LonDeg: -0.13},   // London
		{LatDeg: -33.92, LonDeg: 18.42},  // Cape Town
		{LatDeg: 35.68, LonDeg: 139.69},  // Tokyo
		{LatDeg: -23.55, LonDeg: -46.63}, // São Paulo
		{LatDeg: 28.61, LonDeg: 77.21},   // Delhi
	}
	net := GroupNetwork(ephem.New(c, ephem.Config{}), users, nil)
	snap := net.At(0)
	snap.Freeze()
	if _, err := BestRouted(snap, len(users)); err != nil { // warm the context pool
		b.Fatal(err)
	}
	parallelAvail := runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() > 1
	if !parallelAvail && runtime.GOMAXPROCS(0) <= 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}

	// scan reduces per-user latency rows to the placement's group RTT the
	// same way BestRouted does, so checksums compare.
	scan := func(perUser [][]float64) float64 {
		best := math.Inf(1)
		for id := range perUser[0] {
			worst := 0.0
			feasible := true
			for u := range perUser {
				ow := perUser[u][id]
				if math.IsInf(ow, 1) {
					feasible = false
					break
				}
				worst = math.Max(worst, 2*ow)
			}
			if feasible {
				best = math.Min(best, worst)
			}
		}
		return best
	}
	baseline := func() float64 {
		perUser := make([][]float64, len(users))
		if parallelAvail {
			for u := range users {
				perUser[u] = snap.LatencyToAllSatsInto(u, nil)
			}
		} else {
			var wg sync.WaitGroup
			wg.Add(len(users))
			for u := range users {
				go func(u int) {
					defer wg.Done()
					perUser[u] = snap.LatencyToAllSatsInto(u, nil)
				}(u)
			}
			wg.Wait()
		}
		return scan(perUser)
	}

	const reps = 32
	parNs, baseNs := int64(math.MaxInt64), int64(math.MaxInt64)
	var parSum, baseSum float64
	timePar := func() {
		start := time.Now()
		placed, err := BestRouted(snap, len(users))
		if ns := time.Since(start).Nanoseconds(); ns < parNs {
			parNs = ns
		}
		if err != nil {
			b.Fatal(err)
		}
		parSum = placed.GroupRTTMs
	}
	timeBase := func() {
		start := time.Now()
		got := baseline()
		if ns := time.Since(start).Nanoseconds(); ns < baseNs {
			baseNs = ns
		}
		baseSum = got
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < reps; r++ {
			if r&1 == 0 {
				timePar()
				timeBase()
			} else {
				timeBase()
				timePar()
			}
		}
	}
	b.StopTimer()
	if parSum != baseSum {
		b.Fatalf("fan-out/baseline placement diverged: %.17g vs %.17g", parSum, baseSum)
	}
	b.ReportMetric(float64(parNs), "parallel-ns/op")
	b.ReportMetric(float64(baseNs), "serial-ns/op")
	if par.Workers() > 1 {
		b.ReportMetric(float64(baseNs)/float64(parNs), "parallel-speedup-x")
	}
}
