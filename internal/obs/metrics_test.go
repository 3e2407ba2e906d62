package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs processed.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same underlying counter.
	if again := r.Counter("jobs_total", "Jobs processed."); again.Value() != 5 {
		t.Fatalf("re-registered counter = %d, want 5", again.Value())
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("cmds_total", "Commands.", "verb")
	v.With("GET").Add(3)
	v.With("SET").Inc()
	if v.With("GET").Value() != 3 || v.With("SET").Value() != 1 {
		t.Fatalf("label series mixed up: GET=%d SET=%d", v.With("GET").Value(), v.With("SET").Value())
	}
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Samples) != 2 {
		t.Fatalf("snapshot = %+v, want 1 family with 2 samples", snap)
	}
	// Samples sorted by label value: GET before SET.
	if snap[0].Samples[0].Labels["verb"] != "GET" || snap[0].Samples[0].Value != 3 {
		t.Fatalf("first sample = %+v", snap[0].Samples[0])
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "Queue depth.")
	g.Set(7.5)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	qv := r.QuantileVec("q", "", "worker")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := qv.With("w") // shared series across workers
			for i := 0; i < perWorker; i++ {
				c.Inc()
				q.Observe(1.5)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if got := qv.With("w").Count(); got != workers*perWorker {
		t.Fatalf("quantile count = %d, want %d", got, workers*perWorker)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("requests_total", "Requests served.", "code").With("200").Add(9)
	r.Gauge("temp", "Temperature.").Set(36.6)
	r.Quantile("dur_seconds", "Duration.").Observe(0.25)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP requests_total Requests served.",
		"# TYPE requests_total counter",
		`requests_total{code="200"} 9`,
		"# TYPE temp gauge",
		"temp 36.6",
		"# TYPE dur_seconds summary",
		`dur_seconds{quantile="0.5"} 0.25`,
		"dur_seconds_sum 0.25",
		"dur_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("x_total", "", "path").With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `x_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("bad escaping:\n%s", b.String())
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.").Add(2)
	r.Quantile("q_seconds", "Q.").Observe(0.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap []FamilySnapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(snap) != 2 || snap[0].Name != "a_total" || snap[0].Samples[0].Value != 2 {
		t.Fatalf("round-trip = %+v", snap)
	}
	// The sketch's count, sum and estimates survive the JSON round trip.
	q := snap[1].Samples[0]
	if q.Count != 1 || q.Value != 0.5 || len(q.Quantiles) != len(ExportQuantiles) || q.Quantiles[0].Value != 0.5 {
		t.Fatalf("quantile sample = %+v", q)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("m", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz", "")
	r.Counter("aa", "")
	snap := r.Snapshot()
	if snap[0].Name != "aa" || snap[1].Name != "zz" {
		t.Fatalf("families not sorted: %s, %s", snap[0].Name, snap[1].Name)
	}
}
