package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is recorded in every result.
type hostInfo struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1_at_start"`
}

func hostNow() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("%d CPUs, GOMAXPROCS %d, %s, commit %s, load1 %.2f",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Load1)
}

func (h hostInfo) loadWarning() string {
	if h.Load1 > 0.5*float64(h.NumCPU) {
		return fmt.Sprintf("WARNING: 1-min load average %.2f exceeds half the %d CPUs; timings will be noisy", h.Load1, h.NumCPU)
	}
	return ""
}

// spawnPass runs one pass in a fresh subprocess of this binary — the
// ephemeris caches, the experiments engine pool and netgraph.TotalStats()
// are process-global, and peak RSS is per process — and reads back the
// result file it wrote.
func spawnPass(o options, workload string, traced bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-repeats", "1", "-trace", trace, "-out", o.out,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s pass failed: %w\n%s", workload, err, stderr.String())
	}
	b, err := os.ReadFile(passFile(o.out, workload, traced))
	if err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return result{}, err
	}
	return res, nil
}

// summary is one end-to-end metric over the untraced repeats.
type summary struct {
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Samples int     `json:"samples"`
	Unit    string  `json:"unit"`
}

// workloadReport is everything measured for one workload in one set.
type workloadReport struct {
	Workload   string             `json:"workload"`
	Why        string             `json:"why"`
	Seed       int64              `json:"seed"`
	Scale      float64            `json:"scale"`
	Comparable bool               `json:"comparable"`
	SimDigest  string             `json:"sim_digest"`
	Attempted  int                `json:"ops_attempted"`
	Failed     int                `json:"ops_failed"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	// TracedOverUntraced is the traced pass's wall_s over the untraced
	// median, minus 1: the measured tracing overhead, resolvable only down
	// to the untraced passes' own spread.
	TracedOverUntraced float64    `json:"traced_over_untraced_wall"`
	PerLayer           values     `json:"per_layer"`
	LayerCPU           []layerCPU `json:"layer_cpu"`
	Host               hostInfo   `json:"host"`
}

// measureWorkload runs the untraced repeats and the traced pass of one
// workload and folds them into a report. Any failed op or digest mismatch
// is an error.
func measureWorkload(o options, w workload) (workloadReport, error) {
	rep := workloadReport{Workload: w.name, Why: w.why, Seed: o.seed, Scale: o.scale, EndToEnd: map[string]summary{}}
	samples := map[string][]float64{}
	fold := func(res result) error {
		if rep.SimDigest == "" {
			rep.SimDigest, rep.Host, rep.Comparable = res.SimDigest, res.Host, res.Comparable
		}
		if res.SimDigest != rep.SimDigest {
			return fmt.Errorf("%s: sim_digest %s differs from %s on the same seed", w.name, res.SimDigest, rep.SimDigest)
		}
		rep.Attempted += res.Attempted
		rep.Failed += res.Failed
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d ops failed: %s", w.name, res.Failed, res.Attempted, strings.Join(res.Failures, "; "))
		}
		return nil
	}
	for i := 0; i < o.repeats; i++ {
		res, err := spawnPass(o, w.name, false)
		if err != nil {
			return rep, err
		}
		if err := fold(res); err != nil {
			return rep, err
		}
		for _, m := range passMetrics(w.name, false) {
			samples[m.name] = append(samples[m.name], res.Metrics[m.name])
		}
	}
	for _, m := range passMetrics(w.name, false) {
		xs := samples[m.name]
		rep.EndToEnd[m.name] = summary{
			Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), Samples: len(xs), Unit: m.unit,
		}
	}
	traced, err := spawnPass(o, w.name, true)
	if err != nil {
		return rep, err
	}
	if err := fold(traced); err != nil {
		return rep, err
	}
	rep.PerLayer = values{}
	for _, m := range passMetrics(w.name, true) {
		rep.PerLayer[m.name] = traced.Metrics[m.name]
	}
	rep.TracedOverUntraced = traced.Metrics["wall_s"]/rep.EndToEnd["wall_s"].Median - 1
	rep.LayerCPU = traced.LayerCPU
	return rep, nil
}

// fullReport measures the selected workloads, prints the report, and
// writes it to <out>/results.json.
func fullReport(out io.Writer, o options) ([]workloadReport, error) {
	selected := workloads
	if o.workload != "" {
		w, _ := workloadByName(o.workload)
		selected = []workload{w}
	}
	var reports []workloadReport
	for _, w := range selected {
		rep, err := measureWorkload(o, w)
		if err != nil {
			return nil, err
		}
		printReport(out, rep)
		reports = append(reports, rep)
	}
	path := filepath.Join(o.out, "results.json")
	if err := writeJSON(path, reports); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "results written to %s; Chrome traces in %s\n", path, filepath.Join(o.out, "<workload>.trace.json"))
	return reports, nil
}

func printReport(out io.Writer, rep workloadReport) {
	fmt.Fprintf(out, "== %s — seed %d, scale %.4g ==\n%s\n", rep.Workload, rep.Seed, rep.Scale, rep.Why)
	fmt.Fprintf(out, "every pass ran in a fresh subprocess: the ephemeris caches, the experiments engine pool and the netgraph counters start empty\n")
	printHost(out, rep.Host, rep.Scale)
	fmt.Fprintf(out, "\n  end to end (untraced)              %14s %14s %14s   n  unit  bound\n", "median", "q1", "q3")
	for _, m := range passMetrics(rep.Workload, false) {
		s := rep.EndToEnd[m.name]
		fmt.Fprintf(out, "  %-34s %14.6g %14.6g %14.6g %3d  %-5s %3.0f %%\n",
			m.name, s.Median, s.Q1, s.Q3, s.Samples, s.Unit, 100*m.bound)
	}
	fmt.Fprintf(out, "\n  per layer (traced)\n")
	for _, m := range passMetrics(rep.Workload, true) {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.name, rep.PerLayer[m.name], m.unit)
	}
	wall := rep.EndToEnd["wall_s"]
	fmt.Fprintf(out, "\n  traced wall_s / untraced median - 1 = %+.1f %% (untraced quartiles span %.1f %% of their median)\n",
		100*rep.TracedOverUntraced, 100*(wall.Q3-wall.Q1)/wall.Median)
	printLayers(out, rep.LayerCPU)
	fmt.Fprintf(out, "\n  sim_digest %s (identical on all %d passes)   ops_attempted %d   ops_failed %d\n\n",
		rep.SimDigest, rep.EndToEnd["wall_s"].Samples+1, rep.Attempted, rep.Failed)
}

// selftest measures everything twice with the same binary and fails if
// any end-to-end median moved by more than the metric's own bound, or a
// digest changed: the benchmark's noise must fit inside its gates.
func selftest(out io.Writer, o options) error {
	fmt.Fprintf(out, "selftest: set A\n\n")
	a, err := fullReport(out, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nselftest: set B\n\n")
	b, err := fullReport(out, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nselftest: B against A\n")
	var bad []string
	for i := range a {
		wl := a[i].Workload
		if a[i].SimDigest != b[i].SimDigest {
			bad = append(bad, fmt.Sprintf("%s: sim_digest %s vs %s", wl, a[i].SimDigest, b[i].SimDigest))
		}
		for _, m := range passMetrics(wl, false) {
			sa, sb := a[i].EndToEnd[m.name], b[i].EndToEnd[m.name]
			worse := sb.Median/sa.Median - 1
			if m.higher {
				worse = -worse
			}
			verdict := "ok"
			// Either direction: with one binary, a "better" B is noise too.
			if worse > m.bound || -worse > m.bound {
				verdict = "EXCEEDS BOUND"
				bad = append(bad, fmt.Sprintf("%s %s: %.6g vs %.6g (%+.1f %%, bound %.0f %%)",
					wl, m.name, sa.Median, sb.Median, 100*worse, 100*m.bound))
			}
			fmt.Fprintf(out, "  %-16s %-22s A %12.6g [%.6g, %.6g]  B %12.6g [%.6g, %.6g]  worse by %+6.1f %% of %2.0f %%  %s\n",
				wl, m.name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, 100*worse, 100*m.bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selftest failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Fprintf(out, "selftest passed: every end-to-end median within its bound, digests identical\n")
	return nil
}
