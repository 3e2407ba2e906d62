package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestTimelineFlagParsing(t *testing.T) {
	cases := []struct {
		flag string
		want float64 // resolved cadence at the default 60s step; 0 = off
	}{
		{"auto", 60},
		{"off", 0},
		{"30", 30},
		{"2.5", 2.5},
	}
	for _, c := range cases {
		o, err := parseFlags([]string{"-timeline", c.flag})
		if err != nil {
			t.Fatalf("-timeline %s rejected: %v", c.flag, err)
		}
		got, err := o.timelineCadence()
		if err != nil || got != c.want {
			t.Errorf("-timeline %s: cadence %g (err %v), want %g", c.flag, got, err, c.want)
		}
	}
	for _, bad := range [][]string{
		{"-timeline", "sometimes"},
		{"-timeline", "-5"},
		{"-timeline", "NaN"},
		{"-timeline", "Inf"},
		{"-timeline-cap", "0"},
		{"-slo-avail", "0"},
		{"-slo-avail", "1.5"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
}

func TestSLOFlagObjectives(t *testing.T) {
	o, err := parseFlags([]string{"-slo-replan-ms", "25", "-slo-avail", "0.95"})
	if err != nil {
		t.Fatal(err)
	}
	slos := o.slos()
	if len(slos) != 3 {
		t.Fatalf("%d SLOs, want 3", len(slos))
	}
	byMetric := map[string]obs.SLO{}
	for _, s := range slos {
		byMetric[s.Metric] = s
	}
	if s := byMetric["fleet_replan_ms"]; s.Objective != 25 || s.Kind != obs.SLOLatency {
		t.Errorf("replan SLO = %+v", s)
	}
	if s := byMetric["fleet_sessions_assigned"]; s.Objective != 0.95 || s.Kind != obs.SLORatio ||
		s.TotalMetric != "fleet_sessions" {
		t.Errorf("availability SLO = %+v", s)
	}
}

// TestRunTimelineExport runs a tiny simulation end to end and checks the
// flight-recorder artifacts: the report's SLO section, a readable JSONL
// export, and the HTML report.
func TestRunTimelineExport(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "tl.jsonl")
	html := filepath.Join(dir, "tl.html")
	o, err := parseFlags([]string{
		"-name", "telesat", "-sessions", "50", "-hours", "0.1", "-churn", "0",
		"-timeline-out", jsonl, "-timeline-html", html,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"flight recorder", "SLO report", "p99 replan", "availability"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q", want)
		}
	}

	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frames, err := obs.ReadFramesJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(o.hours * 3600 / o.stepSec); len(frames) != want {
		t.Errorf("exported %d frames, want one per epoch (%d)", len(frames), want)
	}
	if _, ok := frameSeries(frames, "fleet_replan_ms"); !ok {
		t.Error("export missing the replan quantile series")
	}

	page, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "<svg") {
		t.Error("HTML report has no charts")
	}
}

// frameSeries reports whether any frame carries the named series.
func frameSeries(frames []obs.Frame, name string) (obs.Point, bool) {
	for _, fr := range frames {
		for _, p := range fr.Points {
			if p.Name == name {
				return p, true
			}
		}
	}
	return obs.Point{}, false
}

func TestRunTimelineOff(t *testing.T) {
	o, err := parseFlags([]string{
		"-name", "telesat", "-sessions", "20", "-hours", "0.05", "-churn", "0", "-timeline", "off",
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "flight recorder") || strings.Contains(out.String(), "SLO report") {
		t.Error("-timeline=off still printed recorder sections")
	}
}
