package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchjson mode: post-process `go test -bench` text output into a
// machine-readable BENCH_obs.json so b.ReportMetric headline values
// (worst-nearest-rtt-ms, sticky-transfer-median-ms, ...) become a perf
// trajectory the repo can track across commits.
//
//	go test -bench . -run '^$' | figures -benchjson - -benchout BENCH_obs.json

// benchResult is one parsed benchmark line.
type benchResult struct {
	Name       string             `json:"name"`       // without the Benchmark prefix / -P suffix
	Iterations int64              `json:"iterations"` // b.N of the final run
	Metrics    map[string]float64 `json:"metrics"`    // unit -> value, ns/op and ReportMetric units alike
}

// benchHost says where the numbers were taken: the goos/goarch/cpu header
// and GOMAXPROCS suffix of the bench output, plus the Go version and CPU
// count of the process writing the file (the same machine in every
// documented pipeline).
type benchHost struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// benchFile is the BENCH_obs.json document.
type benchFile struct {
	GeneratedUnix int64         `json:"generated_unix"`
	Source        string        `json:"source"`
	Host          benchHost     `json:"host"`
	Benchmarks    []benchResult `json:"benchmarks"`
}

// parseBenchOutput extracts benchmark result lines from `go test -bench`
// output, tolerating the surrounding pkg/PASS chatter. Repeated runs of the
// same benchmark (-count N) keep the last result and add the run count, the
// min/median/max ns/op across runs and a "<metric>-median" for every other
// metric, so a file says how noisy it is and a gate can read a median.
func parseBenchOutput(r io.Reader) ([]benchResult, benchHost, error) {
	byName := map[string]benchResult{}
	perRun := map[string]map[string][]float64{} // benchmark → metric → one value per run
	host := benchHost{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			host.GOOS = v
		} else if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			host.GOARCH = v
		} else if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			host.CPU = v
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if procs, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
				host.GOMAXPROCS = procs
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a FAIL or SKIP marker, not a result line
		}
		res := benchResult{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, host, fmt.Errorf("benchjson: bad value %q on line %q", fields[i], sc.Text())
			}
			res.Metrics[fields[i+1]] = v
		}
		if _, seen := byName[name]; !seen {
			order = append(order, name)
		}
		byName[name] = res
		if perRun[name] == nil {
			perRun[name] = map[string][]float64{}
		}
		for m, v := range res.Metrics {
			perRun[name][m] = append(perRun[name][m], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, host, err
	}
	out := make([]benchResult, 0, len(order))
	for _, n := range order {
		res := byName[n]
		for m, runs := range perRun[n] {
			if len(runs) < 2 {
				continue
			}
			slices.Sort(runs)
			res.Metrics[m+"-median"] = runs[len(runs)/2]
			if m == "ns/op" {
				res.Metrics["runs"] = float64(len(runs))
				res.Metrics["ns/op-min"] = runs[0]
				res.Metrics["ns/op-max"] = runs[len(runs)-1]
			}
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, host, nil
}

// benchJSON reads bench output from inPath ("-" = stdin) and writes
// BENCH_obs.json to outPath.
func benchJSON(inPath, outPath string) error {
	var in io.Reader = os.Stdin
	source := "stdin"
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		source = inPath
	}
	results, host, err := parseBenchOutput(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("benchjson: no benchmark result lines in %s", source)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchFile{
		GeneratedUnix: time.Now().Unix(),
		Source:        source,
		Host:          host,
		Benchmarks:    results,
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), outPath)
	return nil
}
