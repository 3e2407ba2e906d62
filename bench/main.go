// Command bench is the repo benchmark: five constellation-scale workloads
// run end to end through the internal packages, each reporting host-time
// end-to-end metrics from an untraced pass and per-layer metrics from a
// traced pass that measures the layers from outside (see README.md).
//
//	go run ./bench                                  every workload, both passes, 3 repeats
//	go run ./bench -workload routing-sweep          one untraced pass in this process
//	go run ./bench -workload routing-sweep -trace 1 one traced pass
//	go run ./bench -selftest                        two sets of runs, compared by the bounds
//
// A single pass prints every metric by name and unit and ends with the
// one-line JSON result BENCHMARK.json's contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// runSeconds is the measured-phase length the -scale 1 sizes are
// calibrated to on the reference host; BENCHMARK.json's run_seconds. The
// phase is a fixed amount of simulated work, so -seconds scales that work
// rather than stopping a clock.
const runSeconds = 18

type options struct {
	out      string
	workload string
	repeats  int
	seed     int64
	trace    int
	scale    float64
	seconds  float64
	selftest bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for results, Chrome traces and temp files")
	fs.StringVar(&o.workload, "workload", "", "one workload by name (default: all): "+strings.Join(workloadNames(), ", "))
	fs.IntVar(&o.repeats, "repeats", 0, "untraced passes per workload, each in a fresh subprocess (default 1 with -workload: a single pass in this process; 3 otherwise)")
	fs.Int64Var(&o.seed, "seed", 1, "harness seed; the fleet, serve, fault, routing-pair and Fig 6/7 seeds derive from it")
	fs.IntVar(&o.trace, "trace", 0, "single pass only: 1 = traced pass (per-layer metrics, Chrome trace), 0 = untraced (end-to-end metrics)")
	fs.Float64Var(&o.scale, "scale", 1, "workload size multiplier; anything but 1 marks the result as not comparable")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "target measured-phase length; multiplies -scale by seconds/18")
	fs.BoolVar(&o.selftest, "selftest", false, "run two full sets and fail if any end-to-end median differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}
	if o.scale <= 0 || o.seconds <= 0 {
		return o, fmt.Errorf("-scale %v and -seconds %v must be positive", o.scale, o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace %d must be 0 or 1", o.trace)
	}
	if o.repeats < 0 {
		return o, fmt.Errorf("-repeats %d must be non-negative", o.repeats)
	}
	o.scale *= o.seconds / runSeconds
	if o.repeats == 0 {
		o.repeats = 3
		if o.workload != "" {
			o.repeats = 1
		}
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	switch {
	case o.selftest:
		err = selftest(os.Stdout, o)
	case o.workload != "" && o.repeats == 1:
		err = singlePass(os.Stdout, o)
	default:
		_, err = fullReport(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// singlePass runs one pass of one workload in this process, prints every
// metric it measured, writes the full result next to the traces, and ends
// with the contract's result line.
func singlePass(out io.Writer, o options) error {
	w, _ := workloadByName(o.workload)
	traced := o.trace == 1
	res, err := execute(w, newRun(w.name, o.seed, o.scale, traced, o.out))
	if err != nil {
		return err
	}
	printPass(out, res)
	if err := writeJSON(passFile(o.out, w.name, traced), res); err != nil {
		return err
	}
	line, err := json.Marshal(contractLine(res))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func passFile(out, workload string, traced bool) string {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	return filepath.Join(out, workload+"."+pass+".json")
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractResult is the result line's shape: exactly these four keys, the
// metrics being BENCHMARK.json's end_to_end list on an untraced pass and
// its per_layer list on a traced one.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractLine(res result) contractResult {
	cr := contractResult{
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]contractMetric{},
	}
	for _, m := range driverMetrics(res.Traced) {
		cr.Metrics[m.name] = contractMetric{Value: res.Metrics[m.name], Unit: m.unit}
	}
	return cr
}

func printPass(out io.Writer, res result) {
	pass := "untraced pass: end-to-end metrics"
	if res.Traced {
		pass = "traced pass: per-layer metrics"
	}
	fmt.Fprintf(out, "%s — seed %d, scale %.4g, %s\n", res.Workload, res.Seed, res.Scale, pass)
	fmt.Fprintf(out, "fresh process: the ephemeris caches, the experiments engine pool and the netgraph counters all start empty\n")
	printHost(out, res.Host, res.Scale)
	fmt.Fprintln(out)
	for _, m := range passMetrics(res.Workload, res.Traced) {
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", m.name, res.Metrics[m.name], m.unit)
	}
	printLayers(out, res.LayerCPU)
	fmt.Fprintf(out, "\n  sim_digest %s   ops_attempted %d   ops_failed %d\n", res.SimDigest, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
}

// printHost prints the lines every report opens with: the host, and the
// warnings that make its numbers unfit for comparison.
func printHost(out io.Writer, h hostInfo, scale float64) {
	fmt.Fprintf(out, "host: %s\n", h)
	if scale != 1 {
		fmt.Fprintf(out, "NOT COMPARABLE: scale %.4g != 1\n", scale)
	}
	if w := h.loadWarning(); w != "" {
		fmt.Fprintln(out, w)
	}
}

func printLayers(out io.Writer, rows []layerCPU) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(out, "\n  CPU seconds per layer over the measured phase\n")
	for _, lw := range rows {
		fmt.Fprintf(out, "  %-34s %10.3f s %8.1f %% of cpu_s\n", lw.Layer, lw.BusyS, 100*lw.Share)
	}
}
