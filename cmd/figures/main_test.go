package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The runner methods are the command's substance; exercise the fast paths
// end to end (stdout is the program's interface, so we only assert on side
// effects and error-freeness here — content is asserted in the experiments
// package tests).

func testRunner(t *testing.T) runner {
	t.Helper()
	return runner{out: t.TempDir(), fast: true}
}

func TestFeasibilityFigure(t *testing.T) {
	if err := testRunner(t).feasibility(); err != nil {
		t.Fatal(err)
	}
}

func TestEOFigure(t *testing.T) {
	if err := testRunner(t).eo(); err != nil {
		t.Fatal(err)
	}
}

func TestWeatherFigure(t *testing.T) {
	if err := testRunner(t).weather(); err != nil {
		t.Fatal(err)
	}
}

func TestPowerFigure(t *testing.T) {
	if err := testRunner(t).power(); err != nil {
		t.Fatal(err)
	}
}

func TestFig1WritesCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full constellations")
	}
	r := testRunner(t)
	if err := r.fig1(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(r.out, "fig1_rtt_vs_latitude.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Starlink Phase I min RTT") {
		t.Fatal("CSV missing series")
	}
}

func TestFig4WritesCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full constellations")
	}
	r := testRunner(t)
	if err := r.fig4(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(r.out, "fig4_invisible_vs_cities.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestIndentHelper(t *testing.T) {
	got := indent("a\nb\n", "  ")
	if got != "  a\n  b" {
		t.Fatalf("indent = %q", got)
	}
}

func TestParseBenchOutput(t *testing.T) {
	sample := `goos: linux
goarch: amd64
pkg: repro
cpu: whatever
BenchmarkFig1RTTvsLatitude-8   	       1	1234567890 ns/op	        11.20 worst-nearest-rtt-ms	        15.70 worst-farthest-rtt-ms
BenchmarkFeasibilityTable-8    	     120	   9876543 ns/op	         3.10 orbit-over-dc-cost-x
BenchmarkFig1RTTvsLatitude-8   	       2	1200000000 ns/op	        11.50 worst-nearest-rtt-ms	        15.90 worst-farthest-rtt-ms
BenchmarkBroken-8              	  failure line without iters
PASS
ok  	repro	12.345s
`
	results, host, err := parseBenchOutput(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if host.GOOS != "linux" || host.GOARCH != "amd64" || host.CPU != "whatever" || host.GOMAXPROCS != 8 || host.NumCPU < 1 || host.GoVersion == "" {
		t.Fatalf("host = %+v", host)
	}
	if len(results) != 2 {
		t.Fatalf("results = %+v, want 2", results)
	}
	// Sorted by name; repeated benchmark keeps the last run.
	if results[0].Name != "FeasibilityTable" || results[1].Name != "Fig1RTTvsLatitude" {
		t.Fatalf("names = %s, %s", results[0].Name, results[1].Name)
	}
	fig1 := results[1]
	if fig1.Iterations != 2 {
		t.Fatalf("iterations = %d, want last run's 2", fig1.Iterations)
	}
	if fig1.Metrics["worst-nearest-rtt-ms"] != 11.5 || fig1.Metrics["ns/op"] != 1.2e9 {
		t.Fatalf("metrics = %+v", fig1.Metrics)
	}
	// ...and says how many runs there were and how far apart.
	if fig1.Metrics["runs"] != 2 || fig1.Metrics["ns/op-min"] != 1.2e9 || fig1.Metrics["ns/op-max"] != 1234567890 {
		t.Fatalf("run spread = %+v", fig1.Metrics)
	}
	if fig1.Metrics["ns/op-median"] != 1234567890 || fig1.Metrics["worst-nearest-rtt-ms-median"] != 11.5 {
		t.Fatalf("medians = %+v", fig1.Metrics)
	}
	if _, ok := results[0].Metrics["runs"]; ok {
		t.Fatalf("single-run benchmark grew spread metrics: %+v", results[0].Metrics)
	}
}

func TestBenchJSONEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte("BenchmarkX-4 3 100 ns/op 7.5 things-per-op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_obs.json")
	if err := benchJSON(in, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Name != "X" || doc.Benchmarks[0].Metrics["things-per-op"] != 7.5 {
		t.Fatalf("doc = %+v", doc)
	}
	// No benchmark lines at all is an error, not an empty artifact.
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := benchJSON(empty, out); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

func TestRunFigureRecordsTiming(t *testing.T) {
	r := testRunner(t)
	r.tracer = obs.NewTracer(nil)
	info := newRunInfo(true)
	if err := r.runFigure("feasibility", r.feasibility, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Figures) != 1 || info.Figures[0].Name != "feasibility" || info.Figures[0].Seconds < 0 {
		t.Fatalf("info = %+v", info)
	}
	if r.tracer.Len() != 1 {
		t.Fatalf("spans = %d, want 1", r.tracer.Len())
	}
	// The run artifact round-trips.
	path := filepath.Join(r.out, "runinfo.json")
	if err := writeRunInfo(path, info); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back runInfo
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("runinfo.json invalid: %v", err)
	}
	if back.GoVersion == "" || back.NumCPU == 0 || len(back.Figures) != 1 {
		t.Fatalf("runinfo = %+v", back)
	}
}

func TestChromeTraceArtifact(t *testing.T) {
	dir := t.TempDir()
	tr := obs.NewTracer(nil)
	tr.Start("fig:demo").End()
	path := filepath.Join(dir, "trace.json")
	if err := writeChromeTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if len(events) != 1 || events[0]["name"] != "fig:demo" {
		t.Fatalf("events = %+v", events)
	}
}
