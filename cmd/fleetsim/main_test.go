package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/constellation"
	"repro/internal/driver"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-sessions", "42", "-hours", "0.25", "-name", "telesat", "-churn", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Sessions != 42 || o.hours != 0.25 || o.name != "telesat" || o.Churn != 0 {
		t.Fatalf("parsed %+v", o)
	}

	bad := [][]string{
		{"-sessions", "0"},
		{"-hours", "-1"},
		{"-minusers", "0"},
		{"-minusers", "5", "-maxusers", "2"},
		{"-churn", "-1"},
		{"-dwell", "0"},
		{"-demand", "0"},
		{"-demand", "-0.5"},
		{"-serve-rate", "10", "-serve-sites", "0"},
		{"-serve-rate", "10", "-serve-sites", "5000"},
		{"-serve-rate", "10", "-serve-queue", "0"},
		{"-serve-rate", "10", "-serve-queue", "-7"},
		{"-step", "0"},
		{"-step", "-60"},
		{"-hours", "NaN"},
		{"-hours", "+Inf"},
		{"-slo-avail", "NaN"},
		{"-slo-replan-ms", "0"},
		{"-slo-transfer-ms", "-1"},
		{"-slo-replan-ms", "NaN"},
		{"-slo-serve-avail", "NaN"},
		{"-spread", "Inf"},
		{"-nope"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	for _, q := range []string{"-1", "1", "64"} {
		o, err := parseFlags([]string{"-serve-rate", "10", "-serve-queue", q})
		if err != nil {
			t.Fatalf("-serve-queue %s refused: %v", q, err)
		}
		if got := strconv.Itoa(o.serve.queue); got != q {
			t.Fatalf("-serve-queue %s parsed as %s", q, got)
		}
	}
}

func TestBuildWorkloadSeeded(t *testing.T) {
	o, err := parseFlags([]string{"-sessions", "20", "-churn", "0.01", "-seed", "9"})
	if err != nil {
		t.Fatal(err)
	}
	p1, c1, err := driver.Sessions(o.Workload, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 20 {
		t.Fatalf("persistent = %d, want 20", len(p1))
	}
	p2, c2, err := driver.Sessions(o.Workload, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != len(p1) || len(c2) != len(c1) {
		t.Fatalf("same seed produced different population sizes")
	}
	for i := range p1 {
		if p1[i].ID != p2[i].ID || p1[i].StateMB != p2[i].StateMB || p1[i].Centroid != p2[i].Centroid {
			t.Fatalf("session %d differs between same-seed builds", i)
		}
	}
	for i := range c1 {
		if c1[i].At != c2[i].At || c1[i].Sess.ExpiresAt != c2[i].Sess.ExpiresAt {
			t.Fatalf("churn arrival %d differs between same-seed builds", i)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	o, err := parseFlags([]string{
		"-name", "telesat", "-sessions", "50", "-hours", "0.05", "-step", "60", "-churn", "0",
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Telesat: 1671 satellites — 50 sessions",
		"fleet report — 3 epochs",
		"sessions (final / peak)",
		"hand-offs",
		"placement latency",
		"satellites loaded",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("run output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSV(t *testing.T) {
	path := t.TempDir() + "/fleet.csv"
	o, err := parseFlags([]string{
		"-sessions", "10", "-hours", "0.05", "-step", "60", "-churn", "0", "-csv", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 { // header + 3 epochs
		t.Fatalf("csv has %d lines, want 4:\n%s", len(lines), data)
	}
	if lines[0] != "x,sessions,assigned,placements,handoffs,rejections,departures,mean_util" {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestParseFaultFlags(t *testing.T) {
	o, err := parseFlags([]string{"-fault-seed", "9", "-sat-mtbf", "100", "-sat-mttr", "-1", "-isl-flap", "2", "-mig-fail", "0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if f := o.faults; f.Seed != 9 || f.SatMTBFHours != 100 || f.SatMTTRSec != -1 || f.ISLFlapPerHour != 2 || f.MigrationFailProb != 0.1 {
		t.Fatalf("parsed %+v", o)
	}
	if !o.chaosEnabled() {
		t.Fatal("chaos not enabled with nonzero fault rates")
	}
	if o2, err := parseFlags(nil); err != nil || o2.chaosEnabled() {
		t.Fatalf("chaos enabled by default (err=%v)", err)
	}
	bad := [][]string{
		{"-sat-mtbf", "-1"},
		{"-isl-flap", "-0.5"},
		{"-mig-fail", "-0.1"},
		{"-mig-fail", "1"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRunChaosDeterministic is the reproducibility contract: two runs with
// the same -fault-seed produce byte-identical CSVs (with the extra chaos
// columns) and a chaos report section in the text output.
func TestRunChaosDeterministic(t *testing.T) {
	runOnce := func(path string) string {
		o, err := parseFlags([]string{
			"-name", "telesat", "-sessions", "30", "-hours", "0.1", "-step", "60", "-churn", "0",
			"-fault-seed", "5", "-sat-mtbf", "0.5", "-sat-mttr", "-1", "-isl-flap", "5", "-mig-fail", "0.3",
			"-csv", path,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := run(&b, o); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	dir := t.TempDir()
	out1 := runOnce(dir + "/a.csv")
	runOnce(dir + "/b.csv")

	a, err := os.ReadFile(dir + "/a.csv")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dir + "/b.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("same-seed runs produced different CSVs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	header := strings.SplitN(string(a), "\n", 2)[0]
	if header != "x,sessions,assigned,placements,handoffs,rejections,departures,mean_util,down_sats,evacuations,fault_events" {
		t.Fatalf("chaos csv header = %q", header)
	}
	for _, want := range []string{
		"chaos report — injected faults and how the fleet absorbed them",
		"satellite failures",
		"assigned fraction",
	} {
		if !strings.Contains(out1, want) {
			t.Fatalf("chaos run output missing %q:\n%s", want, out1)
		}
	}
}

// goldenFlags is the fixed scenario behind testdata/telesat_*.csv: a
// churn-heavy quarter-hour telesat run whose per-epoch decisions were
// captured before the planner was sharded and streamed. chaos adds the
// fault-injection flags of the chaos golden.
func goldenFlags(chaos bool, extra ...string) []string {
	args := []string{
		"-name", "telesat", "-sessions", "300", "-hours", "0.25", "-churn", "20", "-seed", "7",
	}
	if chaos {
		args = append(args, "-sat-mtbf", "40", "-sat-mttr", "300", "-mig-fail", "0.05", "-isl-flap", "0.5")
	}
	return append(args, extra...)
}

// runCSV runs fleetsim with args and returns its CSV and its text output.
func runCSV(t *testing.T, args []string) (csv, out string) {
	t.Helper()
	path := t.TempDir() + "/run.csv"
	o, err := parseFlags(append(args, "-csv", path))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), b.String()
}

// TestRunGolden pins the planner's decisions to CSVs captured from the
// pre-sharding implementation: refactors of the epoch planner must not
// change a single placement, hand-off, or rejection on a fixed seed. The
// chaos run's report, which reads the orchestrator's lifetime Stats, must
// also tell the golden's column sums and assigned-fraction extremes. The
// serve golden pins the request-serving layer's report tail the same way.
func TestRunGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs simulate 15 epochs of telesat")
	}
	for _, tc := range []struct {
		name   string
		chaos  bool
		golden string
	}{
		{"plain", false, "testdata/telesat_plain.csv"},
		{"chaos", true, "testdata/telesat_chaos.csv"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			got, out := runCSV(t, goldenFlags(tc.chaos))
			if got != string(want) {
				t.Fatalf("CSV diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.golden, got, want)
			}
			if tc.chaos {
				checkReportTellsCSV(t, out, string(want))
			}
		})
	}
	// The serve half: the report tail of a chaos run with the serving layer
	// on, whose failures reach the engines' candidate lists.
	t.Run("serve_chaos", func(t *testing.T) {
		const golden = "testdata/telesat_serve_chaos.txt"
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		_, out := runCSV(t, goldenFlags(false,
			"-fault-seed", "3", "-sat-mtbf", "1", "-sat-mttr", "-1", "-mig-fail", "0.05", "-isl-flap", "0.5",
			"-serve-rate", "300", "-serve-sites", "8", "-serve-cores", "1", "-serve-queue", "2"))
		if i := strings.Index(out, "serve report"); i < 0 || out[i:] != string(want) {
			t.Fatalf("serve report diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, out, want)
		}
	})
}

// checkReportTellsCSV requires the report rows of out to be the sums and
// extremes of the per-epoch CSV's columns.
func checkReportTellsCSV(t *testing.T, out, csv string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	header := strings.Split(lines[0], ",")
	sum := map[string]int{}
	minFrac, finalFrac := 1.0, 0.0
	for _, line := range lines[1:] {
		row := map[string]float64{}
		for i, cell := range strings.Split(line, ",") {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			row[header[i]] = v
			sum[header[i]] += int(v)
		}
		if row["sessions"] > 0 {
			finalFrac = row["assigned"] / row["sessions"]
			minFrac = min(minFrac, finalFrac)
		}
	}
	// Every run checked here steps 60 s epochs.
	sessionHours := float64(sum["sessions"]) * 60 / 3600
	for _, c := range []struct{ row, want string }{
		{"hand-offs", fmt.Sprintf("%d (%.2f per session-hour)", sum["handoffs"], float64(sum["handoffs"])/sessionHours)},
		{"initial placements", fmt.Sprint(sum["placements"])},
		{"rejections", fmt.Sprint(sum["rejections"])},
		{"departures", fmt.Sprint(sum["departures"])},
		{"assigned fraction (min / final)", fmt.Sprintf("%.1f%% / %.1f%%", 100*minFrac, 100*finalFrac)},
	} {
		if got := rowOf(t, out, c.row); got != c.want {
			t.Fatalf("report row %q reads %q, the CSV says %q", c.row, got, c.want)
		}
	}
	// These rows lead with one count, or two ("a / b"); both says the column
	// sums the two.
	for _, c := range []struct {
		row, col string
		both     bool
	}{
		{"hand-offs", "handoffs", false},
		{"evacuations (completed / deferred)", "evacuations", false},
		{"satellite failures / recoveries", "fault_events", true},
	} {
		var a, b int
		n, _ := fmt.Sscanf(rowOf(t, out, c.row), "%d / %d", &a, &b)
		if c.both {
			a += b
		}
		if n < 1 || c.both && n < 2 || a != sum[c.col] {
			t.Fatalf("report row %q counts %d, the CSV's %s column sums to %d", c.row, a, c.col, sum[c.col])
		}
	}
}

// TestReportPerHandoffRates pins CI's telesat chaos run (40 sessions plus
// 2/s churn for 0.1 h): the hand-off rate divides by the session-hours the
// epoch reports add up, not the final population times the horizon (0.57),
// and the transfer and downtime means weigh every hand-off once, not every
// epoch once (8.21 ms and 8.3 ms).
func TestReportPerHandoffRates(t *testing.T) {
	csv, out := runCSV(t, []string{"-name", "telesat", "-sessions", "40", "-hours", "0.1", "-step", "60",
		"-fault-seed", "7", "-sat-mtbf", "0.5", "-sat-mttr", "-1", "-isl-flap", "5", "-mig-fail", "0.2"})
	for _, c := range []struct{ row, want string }{
		{"hand-offs", "36 (1.04 per session-hour)"},
		{"mean transfer latency", "9.93 ms one-way"},
		{"mean migration downtime", "10.0 ms"},
	} {
		if got := rowOf(t, out, c.row); got != c.want {
			t.Fatalf("report row %q reads %q, want %q", c.row, got, c.want)
		}
	}
	checkReportTellsCSV(t, out, csv)
}

// rowOf returns the value cell of the report table row named row.
func rowOf(t *testing.T, out, row string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(row) + `  +(.*)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("report has no row %q:\n%s", row, out)
	}
	return m[1]
}

// TestServeReportDeterministic: the serve-report tail (everything from
// "serve report" on) holds simulated quantities only, so same-seed runs
// print it byte for byte; the fleet report above it has wall-clock rows.
// The arrivals reach the engines three ways — each pulling its own
// generator, the same while one more generator streams to a trace file, and
// that file read back and fed as one shared slice — and must not differ.
func TestServeReportDeterministic(t *testing.T) {
	tail := func(serveFlags ...string) string {
		o, err := parseFlags(append([]string{
			"-name", "telesat", "-sessions", "20", "-hours", "0.05", "-step", "60", "-churn", "0",
			"-serve-sites", "6", "-serve-cores", "2", "-serve-queue", "4",
		}, serveFlags...))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := run(&b, o); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		i := strings.Index(out, "serve report")
		if i < 0 || !strings.Contains(out[:i], "serve nearest avail") {
			t.Fatalf("output missing the serve report or its SLO rows:\n%s", out)
		}
		return out[i:]
	}
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	want := tail("-serve-rate", "40")
	if !strings.Contains(want, "requests offered per policy") || strings.Contains(want, " 0 requests offered") {
		t.Fatalf("serve report offered nothing:\n%s", want)
	}
	for _, flags := range [][]string{
		{"-serve-rate", "40"},
		{"-serve-rate", "40", "-serve-trace", trace},
		{"-serve-replay", trace},
	} {
		if got := tail(flags...); got != want {
			t.Fatalf("%v: same-seed serve reports differ:\n--- got ---\n%s\n--- want ---\n%s", flags, got, want)
		}
	}
}

// TestRunGOMAXPROCSInvariance: worker parallelism must never change the
// planner's decisions — the golden CSV reproduces under 1, 2, and 8 procs.
func TestRunGOMAXPROCSInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("invariance runs simulate 15 epochs of telesat per GOMAXPROCS")
	}
	want, err := os.ReadFile("testdata/telesat_plain.csv")
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got, _ := runCSV(t, goldenFlags(false)); got != string(want) {
			t.Fatalf("GOMAXPROCS=%d diverged from golden CSV:\n%s", procs, got)
		}
	}
}

// TestBuildNamed checks that every name the -name flag offers builds a
// constellation and that an unknown name is refused.
func TestBuildNamed(t *testing.T) {
	for _, name := range []string{"starlink", "kuiper", "telesat"} {
		c, err := constellation.Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Size() == 0 {
			t.Fatalf("%s: empty", name)
		}
	}
	if err := run(io.Discard, options{name: "atlantis"}); err == nil {
		t.Fatal("unknown name accepted")
	}
}
