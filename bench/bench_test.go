package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// testScale runs every workload at about 1/100 of its calibrated size.
const testScale = 0.01

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func declared(ms []metric) []benchmarkMetric {
	var out []benchmarkMetric
	for _, m := range ms {
		bm := benchmarkMetric{Name: m.name, Unit: m.unit, Better: "lower"}
		if m.higher {
			bm.Better = "higher"
		}
		if m.universal() {
			bm.Bound = m.bound
		}
		out = append(out, bm)
	}
	return out
}

// TestBenchmarkFileMatchesTable pins BENCHMARK.json to the harness's own
// metric and workload tables.
func TestBenchmarkFileMatchesTable(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness calibrated to %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q (or their why lines differ)", i, bf.Workloads[i].Name, w.name)
		}
	}
	if want := declared(driverMetrics(false)); !reflect.DeepEqual(bf.EndToEnd, want) {
		t.Errorf("end_to_end\n got %+v\nwant %+v", bf.EndToEnd, want)
	}
	if want := declared(driverMetrics(true)); !reflect.DeepEqual(bf.PerLayer, want) {
		t.Errorf("per_layer\n got %+v\nwant %+v", bf.PerLayer, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range metrics {
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
			t.Errorf("metric %q unit %q outside the contract's character set", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
		if m.bound > 0.25 {
			t.Errorf("metric %q bound %v above 0.25", m.name, m.bound)
		}
	}
}

// pass runs one single pass the way the driver does and returns the result
// line and everything printed before it.
func pass(t *testing.T, workload string, seed int64, trace int) (contractResult, result, string) {
	t.Helper()
	out := t.TempDir()
	var buf bytes.Buffer
	o := options{out: out, workload: workload, repeats: 1, seed: seed, trace: trace, scale: testScale}
	if err := singlePass(&buf, o); err != nil {
		t.Fatalf("%s seed %d trace %d: %v", workload, seed, trace, err)
	}
	text := strings.TrimRight(buf.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	var cr contractResult
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cr); err != nil {
		t.Fatalf("result line %q: %v", last, err)
	}
	b, err := os.ReadFile(passFile(out, workload, trace == 1))
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if trace == 1 {
		if _, err := os.Stat(filepath.Join(out, workload+".trace.json")); err != nil {
			t.Errorf("traced pass left no Chrome trace: %v", err)
		}
	}
	return cr, res, text
}

func TestWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			untraced, full, text := pass(t, w.name, 1, 0)
			traced, fullTraced, _ := pass(t, w.name, 1, 1)
			_, other, _ := pass(t, w.name, 2, 0)

			for _, c := range []struct {
				got  contractResult
				want []benchmarkMetric
			}{{untraced, bf.EndToEnd}, {traced, bf.PerLayer}} {
				if !c.got.Correct || c.got.Failed != 0 || c.got.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", c.got.Correct, c.got.Attempted, c.got.Failed)
				}
				if len(c.got.Metrics) != len(c.want) {
					t.Errorf("result line has %d metrics, BENCHMARK.json declares %d", len(c.got.Metrics), len(c.want))
				}
				for _, m := range c.want {
					got, ok := c.got.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: emitted=%v unit %q, declared unit %q", m.Name, ok, got.Unit, m.Unit)
					}
				}
			}
			for _, m := range bf.EndToEnd {
				if untraced.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, untraced.Metrics[m.Name].Value)
				}
			}
			// Every metric defined on this workload is measured and printed
			// by name with its unit.
			for _, traced := range []bool{false, true} {
				res := full
				if traced {
					res = fullTraced
				}
				for _, m := range passMetrics(w.name, traced) {
					if _, ok := res.Metrics[m.name]; !ok {
						t.Errorf("%s not measured (traced=%v)", m.name, traced)
					}
				}
			}
			for _, m := range passMetrics(w.name, false) {
				if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.name) + `\s+\S+ ` + regexp.QuoteMeta(m.unit) + `$`).MatchString(text) {
					t.Errorf("%s not printed with unit %s", m.name, m.unit)
				}
			}

			if full.SimDigest != fullTraced.SimDigest {
				t.Errorf("sim_digest %s untraced, %s traced on one seed", full.SimDigest, fullTraced.SimDigest)
			}
			if full.SimDigest == other.SimDigest {
				t.Errorf("seeds 1 and 2 share sim_digest %s", full.SimDigest)
			}
			if full.Comparable {
				t.Errorf("scale %v marked comparable", testScale)
			}
			if len(fullTraced.LayerCPU) == 0 {
				t.Errorf("traced pass has no layer table")
			}
		})
	}
}

func TestSecondsScalesTheWork(t *testing.T) {
	o, err := parseFlags([]string{"--workload", wlRoutingSweep, "--seed", "3", "--seconds", "9", "--trace", "1"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if o.scale != 0.5 || o.trace != 1 || o.seed != 3 || o.repeats != 1 {
		t.Errorf("parsed %+v", o)
	}
	if _, err := parseFlags([]string{"-workload", "nope"}, new(bytes.Buffer)); err == nil {
		t.Errorf("unknown workload accepted")
	}
}
