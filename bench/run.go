package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/stats"
)

// run is one round of one workload: a set-up, a measured phase, and what
// they measured.
type run struct {
	workload string
	seed     int64
	scale    float64
	traced   bool
	outDir   string

	reg *obs.Registry // the run's own registry; netgraph and experiments use obs.Default()
	t   *tracer
	v   values
	dig hash.Hash

	attempted, failed int
	failures          []string // first few failed ops, for the report

	wall float64 // the measured phase's wall time, known once it ends
	work float64 // work units behind work_per_s

	// What the unit-cost probes run against: the workload's constellation,
	// the ground set its netgraph snapshots carry (empty = groundless) and
	// the cadence they follow each other at.
	c          *constellation.Constellation
	grounds    []geo.LatLon
	cadenceSec float64

	layers []layerCPU // traced: the round's layer table
}

func newRun(workload string, seed int64, scale float64, traced bool, outDir string) *run {
	reg := obs.NewRegistry()
	return &run{
		workload: workload, seed: seed, scale: scale, traced: traced, outDir: outDir,
		reg: reg,
		t:   newTracer(traced, reg, obs.Default()),
		v:   values{},
		dig: sha256.New(),
	}
}

// fresh returns a run over the same inputs with nothing measured yet: a
// further round, or a repeat set-up whose measurements are thrown away.
func (r *run) fresh(traced bool) *run {
	return newRun(r.workload, r.seed, r.scale, traced, r.outDir)
}

// scaled sizes a workload's horizon: n at -scale 1, never below floor.
func (r *run) scaled(n, floor int) int {
	return max(floor, int(math.Round(float64(n)*r.scale)))
}

// op counts one operation against the failure tally: a call that returned
// an error or a violated output check.
func (r *run) op(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

// check is op for an output invariant.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("check: "+format, args...))
}

// Digest input: every deterministic output of the simulation, floats by
// their exact bits.
func (r *run) hashInts(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		r.dig.Write(b[:])
	}
}

func (r *run) hashFloats(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		r.dig.Write(b[:])
	}
}

func (r *run) digest() string { return hex.EncodeToString(r.dig.Sum(nil)[:8]) }

// result is what one pass reports: the contract's four keys plus the
// context the harness needs to aggregate and compare passes.
type result struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Traced     bool    `json:"traced"`
	Comparable bool    `json:"comparable"`
	SimDigest  string  `json:"sim_digest"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	Metrics  values     `json:"metrics"`
	LayerCPU []layerCPU `json:"layer_cpu,omitempty"`
	Host     hostInfo   `json:"host"`
}

// layerCPU is one row of the "where does the run spend its time" table.
type layerCPU struct {
	Layer string  `json:"layer"`
	BusyS float64 `json:"busy_s"`
	Share float64 `json:"share_of_cpu"`
}

// A workload's set-up builds everything the measured phase needs from the
// run's seed and returns that phase.
type workload struct {
	name, why string
	// rounds is how often a pass repeats set-up + measured phase in this
	// process, each time from fresh state; every metric is the median over
	// the rounds. More than one only where a single phase is too short to
	// time steadily and nothing process-global stays warm between rounds.
	rounds int
	setup  func(r *run) (phase, error)
}

type phase struct {
	// measure is the timed part: the calls into the program, plus the
	// per-iteration checks cheap enough not to matter.
	measure func() error
	// verify runs after the clock stops: output checks and digest input
	// that would distort the phase, and the metrics derived from them.
	verify func()
}

// An untraced pass repeats its set-up until it has sampled setupBudget of
// set-up time (at most maxSetups times; the budget shrinks with -scale)
// and reports the median: a set-up of milliseconds is mostly noise in one
// sample, one of seconds is not.
const (
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// round runs set-up, the measured phase and verify once, filling r.v, and
// returns how long set-up took.
func (r *run) round(w workload) (setupS float64, err error) {
	setupStart := time.Now()
	ph, err := w.setup(r)
	if err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setupS = time.Since(setupStart).Seconds()

	// Start the measured phase from a settled heap, so set-up garbage is
	// collected on set-up's account, not the phase's.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var base flat
	if r.traced {
		base = r.t.snapshot()
	}
	r.t.startPhase()
	cpu0 := cpuSeconds()
	start := time.Now()
	err = ph.measure()
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	r.t.endPhase()
	if err != nil {
		return 0, fmt.Errorf("%s: measured phase: %w", w.name, err)
	}
	runtime.ReadMemStats(&ms1)
	r.wall = wall
	ph.verify()

	r.v["wall_s"] = wall
	r.v["cpu_s"] = cpu
	r.v["alloc_gb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e9
	r.v["work_per_s"] = r.work / wall
	r.v["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	r.v["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	if r.traced {
		end := r.t.snapshot()
		delta := end.sub(base)
		r.layerMetrics(delta, end)
		r.layers = r.layerTable(delta, cpu)
	}
	return setupS, nil
}

// execute runs one pass: the workload's rounds, then (untraced) the repeat
// set-ups or (traced) the unit-cost probes and the Chrome trace.
func execute(w workload, first *run) (result, error) {
	host := hostNow()
	var setups []float64
	var rounds []*run
	for i := 0; i < max(1, w.rounds); i++ {
		r := first
		if i > 0 {
			r = first.fresh(first.traced)
		}
		s, err := r.round(w)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
		rounds = append(rounds, r)
	}
	last := rounds[len(rounds)-1]

	res := result{
		Workload: w.name, Seed: last.seed, Scale: last.scale, Traced: last.traced,
		Comparable: last.scale == 1, SimDigest: last.digest(), Host: host,
		Metrics: values{}, LayerCPU: last.layers,
	}
	for _, r := range rounds {
		// Same seed, fresh state: every round must simulate the same thing.
		r.check(r.digest() == res.SimDigest, "round sim_digest %s differs from %s", r.digest(), res.SimDigest)
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Failures = append(res.Failures, r.failures...)
	}
	for name := range last.v {
		samples := make([]float64, len(rounds))
		for i, r := range rounds {
			samples[i] = r.v[name]
		}
		res.Metrics[name] = median(samples)
	}
	// Process-wide high-water marks, not per-round quantities.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	res.Metrics["runtime.heap_peak_mb"] = float64(ms.HeapSys) / (1 << 20)

	if last.traced {
		if err := last.probes(res.Metrics); err != nil {
			return result{}, fmt.Errorf("%s: probes: %w", w.name, err)
		}
		res.Metrics["obs.trace_overhead_frac"] = last.traceOverhead()
		if err := last.writeChromeTrace(); err != nil {
			return result{}, err
		}
	} else {
		budget := setupBudget.Seconds() * min(1, last.scale)
		sampled := 0.0
		for _, s := range setups {
			sampled += s
		}
		for sampled < budget && len(setups) < maxSetups {
			runtime.GC()
			s0 := time.Now()
			if _, err := w.setup(first.fresh(false)); err != nil {
				return result{}, fmt.Errorf("%s: repeat set-up: %w", w.name, err)
			}
			setups = append(setups, time.Since(s0).Seconds())
			sampled += setups[len(setups)-1]
		}
	}
	res.Metrics["setup_s"] = median(setups)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func (r *run) writeChromeTrace() error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.outDir, r.workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := r.t.spans.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark so far (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the linear-interpolated q-quantile of a non-empty sample.
func quantile(xs []float64, q float64) float64 { return stats.NewCDF(xs...).Quantile(q) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }
