package ephem_test

// The ephemeris engine benchmark harness. External test package so the
// fleet benchmark can import repro/internal/fleet without a cycle
// (fleet depends on ephem).
//
// Speedup metrics use manual timing over a fixed number of internal
// repetitions so the numbers stay meaningful at -benchtime=1x, the CI
// smoke setting; serial and parallel paths are cross-checked bit-for-bit
// via a frame checksum. Results feed BENCH_ephem.json through the
// cmd/figures -benchjson pipeline.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/par"
)

var (
	starlinkOnce sync.Once
	starlinkC    *constellation.Constellation
	telesatOnce  sync.Once
	telesatC     *constellation.Constellation
)

func starlink(b *testing.B) *constellation.Constellation {
	b.Helper()
	starlinkOnce.Do(func() {
		c, err := constellation.StarlinkPhase1(constellation.Config{})
		if err != nil {
			b.Fatal(err)
		}
		starlinkC = c
	})
	return starlinkC
}

func telesat(b *testing.B) *constellation.Constellation {
	b.Helper()
	telesatOnce.Do(func() {
		c, err := constellation.Telesat(constellation.Config{})
		if err != nil {
			b.Fatal(err)
		}
		telesatC = c
	})
	return telesatC
}

// checksum folds a frame into one float so the compiler cannot elide
// propagation and so two code paths can be compared bit-for-bit.
func checksum(snap []geo.Vec3) float64 {
	s := 0.0
	for _, v := range snap {
		s += v.X + v.Y + v.Z
	}
	return s
}

// frameReps is the fixed internal repetition count behind each manual
// timing; distinct instants per rep keep every propagation real work.
const frameReps = 4

// BenchmarkSnapshotSerial is the baseline: direct per-satellite propagation
// of one full Starlink frame with no engine at all.
func BenchmarkSnapshotSerial(b *testing.B) {
	c := starlink(b)
	dst := make([]geo.Vec3, c.Size())
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SnapshotInto(float64(i), dst); err != nil {
			b.Fatal(err)
		}
		sink = checksum(dst)
	}
	b.ReportMetric(float64(c.Size()), "sats")
	_ = sink
}

// BenchmarkSnapshotParallel compares one-worker and par.Workers()
// propagation through the engine's SnapshotInto, which stores no frame on a
// miss (every instant here is distinct), asserting the frames are
// bit-identical. On a 1-CPU host both engines are serial, so the speedup is
// reported only where there is parallelism to measure.
func BenchmarkSnapshotParallel(b *testing.B) {
	c := starlink(b)
	serial := ephem.New(c, ephem.Config{Workers: 1})
	wide := ephem.New(c, ephem.Config{})
	dst := make([]geo.Vec3, c.Size())
	var serialNs, parNs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := float64(i * frameReps)
		var csSerial, csPar float64
		t0 := time.Now()
		for r := 0; r < frameReps; r++ {
			if err := serial.SnapshotInto(base+float64(r), dst); err != nil {
				b.Fatal(err)
			}
			csSerial += checksum(dst)
		}
		serialNs += float64(time.Since(t0).Nanoseconds())
		t0 = time.Now()
		for r := 0; r < frameReps; r++ {
			if err := wide.SnapshotInto(base+float64(r), dst); err != nil {
				b.Fatal(err)
			}
			csPar += checksum(dst)
		}
		parNs += float64(time.Since(t0).Nanoseconds())
		if csSerial != csPar {
			b.Fatalf("serial and parallel frames diverge: %v vs %v", csSerial, csPar)
		}
	}
	frames := float64(b.N * frameReps)
	b.ReportMetric(serialNs/frames, "serial-ns-per-frame")
	b.ReportMetric(parNs/frames, "parallel-ns-per-frame")
	if par.Workers() > 1 {
		b.ReportMetric(serialNs/parNs, "parallel-speedup-x")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkSnapshotCached measures the shared-frame hit path against cold
// propagation of the same instants.
func BenchmarkSnapshotCached(b *testing.B) {
	c := starlink(b)
	var coldNs, hitNs float64
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := ephem.New(c, ephem.Config{}) // frameReps fits the default store
		t0 := time.Now()
		for r := 0; r < frameReps; r++ {
			sink = checksum(eng.SnapshotAt(float64(r) * 60))
		}
		coldNs += float64(time.Since(t0).Nanoseconds())
		t0 = time.Now()
		for r := 0; r < frameReps; r++ {
			sink = checksum(eng.SnapshotAt(float64(r) * 60))
		}
		hitNs += float64(time.Since(t0).Nanoseconds())
		if s := eng.Stats(); s.Hits != uint64(frameReps) || s.Misses != uint64(frameReps) {
			b.Fatalf("stats %+v, want %d hits / %[2]d misses", s, frameReps)
		}
	}
	_ = sink
	frames := float64(b.N * frameReps)
	b.ReportMetric(coldNs/frames, "cold-ns-per-frame")
	b.ReportMetric(hitNs/frames, "hit-ns-per-frame")
	b.ReportMetric(coldNs/hitNs, "cache-speedup-x")
}

// BenchmarkFleetRun2h drives the fleet orchestrator through a simulated
// two-hour Telesat run (120 one-minute epochs, 60 two-user sessions) over
// its private engine and reports the wall clock plus cache occupancy.
func BenchmarkFleetRun2h(b *testing.B) {
	c := telesat(b)
	const (
		epochs   = 120
		sessions = 60
	)
	var frames int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orch, err := fleet.New(c, nil, fleet.Config{StepSec: 60})
		if err != nil {
			b.Fatal(err)
		}
		for id := uint64(1); id <= sessions; id++ {
			lat := -55 + float64(id*2%110)
			lon := -180 + float64(id*7%360)
			s, err := fleet.NewSession(id, []geo.LatLon{
				{LatDeg: lat, LonDeg: lon},
				{LatDeg: lat + 1, LonDeg: lon + 2},
			})
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
		for e := 0; e < epochs; e++ {
			if _, err := orch.Step(); err != nil {
				b.Fatal(err)
			}
		}
		frames = orch.Ephemeris().Stats().Frames
	}
	b.ReportMetric(epochs, "epochs")
	b.ReportMetric(sessions, "sessions")
	b.ReportMetric(float64(frames), "ephem-frames-live")
}

// BenchmarkFigureSuiteReuse runs the reduced Fig 1 latitude sweep twice:
// the first pass fills the experiments-wide engine pool, the second replays
// it. The reuse speedup is the hardware-independent half of the engine's
// win (the figure binary sees the same effect across its six figures).
func BenchmarkFigureSuiteReuse(b *testing.B) {
	cfg := experiments.LatitudeSweepConfig{
		LatStepDeg:     10,
		SampleEverySec: 600,
		DurationSec:    3600,
	}
	var coldNs, warmNs float64
	hits0 := experiments.EphemStats().Hits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := experiments.Fig1(cfg); err != nil {
			b.Fatal(err)
		}
		coldNs += float64(time.Since(t0).Nanoseconds())
		t0 = time.Now()
		if _, err := experiments.Fig1(cfg); err != nil {
			b.Fatal(err)
		}
		warmNs += float64(time.Since(t0).Nanoseconds())
	}
	b.StopTimer()
	if experiments.EphemStats().Hits == hits0 {
		b.Fatal("second sweep should replay pooled frames")
	}
	b.ReportMetric(coldNs/float64(b.N)/1e6, "cold-ms-per-sweep")
	b.ReportMetric(warmNs/float64(b.N)/1e6, "warm-ms-per-sweep")
	b.ReportMetric(coldNs/warmNs, "reuse-speedup-x")
}
