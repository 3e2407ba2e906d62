package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// recordSample builds a small two-frame timeline export on disk.
func recordSample(t *testing.T) string {
	t.Helper()
	reg := obs.NewRegistry()
	c := reg.Counter("demo_total", "demo counter")
	g := reg.Gauge("demo_level", "demo gauge")
	q := reg.Quantile("demo_ms", "demo quantile")
	tl := obs.NewTimeline(reg, obs.TimelineConfig{CadenceSec: 10})

	c.Add(5)
	g.Set(2)
	q.Observe(1.5)
	tl.Record(10)
	c.Add(7)
	g.Set(3)
	q.Observe(4.5)
	tl.Record(20)

	path := filepath.Join(t.TempDir(), "tl.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTimelineReport(t *testing.T) {
	path := recordSample(t)
	dir := filepath.Dir(path)
	htmlOut := filepath.Join(dir, "tl.html")
	csvOut := filepath.Join(dir, "tl.csv")

	var out bytes.Buffer
	if err := run(&out, path, htmlOut, csvOut, "test", nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"2 frames", "demo_total", "total 12", "demo_level", "last 3", "demo_ms"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q in:\n%s", want, got)
		}
	}

	html, err := os.ReadFile(htmlOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "<svg") || !strings.Contains(string(html), "demo_total") {
		t.Error("HTML report missing chart or series name")
	}
	csv, err := os.ReadFile(csvOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "t_sec,name,labels,field,value\n") {
		t.Errorf("CSV header wrong: %q", strings.SplitN(string(csv), "\n", 2)[0])
	}
}

func TestTimelineReportEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&bytes.Buffer{}, path, "", "", "t", nil); err == nil {
		t.Fatal("expected error for frame-less timeline")
	}
}

func writeBench(t *testing.T, name string, gen int64, metrics map[string]float64) string {
	t.Helper()
	bf := benchFile{GeneratedUnix: gen, Source: "test", Benchmarks: []benchResult{
		{Name: "Demo", Iterations: 1, Metrics: metrics},
	}}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(f).Encode(bf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchTrajectory(t *testing.T) {
	a := writeBench(t, "BENCH_a.json", 100, map[string]float64{"ns/op": 1000, "only-a": 7})
	b := writeBench(t, "BENCH_b.json", 200, map[string]float64{"ns/op": 1500})

	var out bytes.Buffer
	if err := run(&out, "", "", "", "", []string{a, b}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"2 files", "Demo", "ns/op", "+50.0%", "only-a"} {
		if !strings.Contains(got, want) {
			t.Errorf("trajectory missing %q in:\n%s", want, got)
		}
	}
}

func TestBenchReportCommittedFormat(t *testing.T) {
	// The repo's committed BENCH files must stay readable by the tool.
	for _, p := range []string{"../../BENCH_obs.json", "../../BENCH_ephem.json",
		"../../BENCH_netgraph.json", "../../BENCH_serve.json"} {
		if _, err := os.Stat(p); err != nil {
			t.Skipf("%s not present", p)
		}
		var out bytes.Buffer
		if err := benchReport(&out, []string{p}); err != nil {
			t.Errorf("benchReport(%s): %v", p, err)
			continue
		}
		if strings.HasSuffix(p, "BENCH_serve.json") {
			// The serve engine's headline metric must surface in the perf
			// trajectory, not just in the raw JSON.
			if got := out.String(); !strings.Contains(got, "req/s") {
				t.Errorf("serve trajectory missing req/s:\n%s", got)
			}
		}
	}
}

// FuzzBenchReport: two arbitrary byte strings as BENCH_*.json files must
// never panic the trajectory report. When both decode, it prints one row per
// distinct (benchmark, metric) pair across the files, under a title that
// counts them.
func FuzzBenchReport(f *testing.F) {
	f.Add([]byte(`{"generated_unix":100,"benchmarks":[{"name":"Demo","metrics":{"ns/op":1000,"only-a":7}}]}`),
		[]byte(`{"generated_unix":200,"benchmarks":[{"name":"Demo","metrics":{"ns/op":1500}}]}`))
	f.Add([]byte(`{"benchmarks":[{"name":"A","metrics":{"x":0}},{"name":"A","metrics":{"x":1,"y":-2e300}}]}`),
		[]byte(`{"benchmarks":null}`))
	f.Add([]byte(`{"benchmarks":[{"name":"a\nb","metrics":{"":1}}]} trailing`), []byte(`[]`))
	f.Add([]byte(``), []byte(`{`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		paths := []string{filepath.Join(dir, "BENCH_a.json"), filepath.Join(dir, "BENCH_b.json")}
		pairs, multiline, decoded := map[[2]string]bool{}, false, true
		for i, data := range [][]byte{a, b} {
			if err := os.WriteFile(paths[i], data, 0o644); err != nil {
				t.Fatal(err)
			}
			var bf benchFile
			if json.NewDecoder(bytes.NewReader(data)).Decode(&bf) != nil {
				decoded = false
				continue
			}
			for _, r := range bf.Benchmarks {
				for metric := range r.Metrics {
					pairs[[2]string{r.Name, metric}] = true
					multiline = multiline || strings.ContainsAny(r.Name+metric, "\n")
				}
			}
		}
		var out bytes.Buffer
		err := benchReport(&out, paths)
		if !decoded {
			if err == nil {
				t.Fatalf("an input that does not decode was reported:\n%s", out.String())
			}
			return
		}
		if err != nil {
			t.Fatalf("both inputs decode, yet benchReport failed: %v", err)
		}
		got := out.String()
		if title := fmt.Sprintf("2 files, %d metrics\n", len(pairs)); !strings.Contains(got, title) {
			t.Fatalf("want a title %q for %d pairs, got:\n%s", title, len(pairs), got)
		}
		// A blank line, the title and a blank line, then the header, the rule
		// and one line per pair.
		if lines := strings.Count(got, "\n"); !multiline && lines != 5+len(pairs) {
			t.Fatalf("%d lines for %d pairs, want %d:\n%s", lines, len(pairs), 5+len(pairs), got)
		}
	})
}
