package serve

import (
	"testing"

	"repro/internal/compute"
)

// benchServe drives one policy over a fixed 2-minute trace — engine
// construction, Feed and the run all timed — and reports wall-clock request
// throughput, allocation, and the simulated p99 latency: what CI records
// into BENCH_serve.json.
func benchServe(b *testing.B, p Policy) {
	c := testConst(b)
	sites := SitesFromCities(12)
	reqs, err := Generate(sites, Workload{Seed: 5, RatePerSec: 400, ServiceMedianMs: 10, DiurnalAmplitude: 0.3}, 120)
	if err != nil {
		b.Fatal(err)
	}
	srv := compute.ServerSpec{Cores: 8, MemoryGB: 64, PowerCapFraction: 1}
	var last Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewEngine(c, Config{Sites: sites, Policy: p, Server: srv, RefreshSec: 30})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Feed(reqs); err != nil {
			b.Fatal(err)
		}
		if err := eng.RunUntil(150); err != nil {
			b.Fatal(err)
		}
		last = eng.Result()
	}
	b.StopTimer()
	if last.Served == 0 {
		b.Fatal("benchmark served no requests")
	}
	b.ReportMetric(float64(last.Offered*b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(last.LatencyMs.Quantile(0.99), "p99-ms")
}

func BenchmarkServeNearest(b *testing.B)     { benchServe(b, Nearest()) }
func BenchmarkServeLeastLoaded(b *testing.B) { benchServe(b, LeastLoaded()) }
func BenchmarkServeSticky(b *testing.B)      { benchServe(b, Sticky(0)) }

// BenchmarkGenerate draws the repo benchmark's trace shape (40 sites,
// 350 req/s, one diurnal hour). B/op is the receipt for the presized k-way
// merge: CI holds it to 1.1 x 24 B x requests, where append-then-sort
// allocated about five times the trace. curve-evals/request is the receipt
// for the thinning envelope: diurnal-curve evaluations per kept request,
// 2.085 at this shape when every thinning draw evaluated the curve, under
// 0.006 with the envelope; CI holds it within 1 % of the committed record.
func BenchmarkGenerate(b *testing.B) {
	sites := SitesFromCities(40)
	w := Workload{Seed: 1, RatePerSec: 350, ServiceMedianMs: 20, DiurnalAmplitude: 0.6}
	var reqs []Request
	evals := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := NewGenerator(sites, w, 3600)
		if err != nil {
			b.Fatal(err)
		}
		reqs = g.drain(g.sizeHint())
		evals = 0
		for i := range g.streams {
			evals += g.streams[i].evals
		}
	}
	b.ReportMetric(float64(len(reqs)), "requests")
	b.ReportMetric(float64(evals)/float64(len(reqs)), "curve-evals/request")
}
