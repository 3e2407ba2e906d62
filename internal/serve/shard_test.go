package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/faults"
	"repro/internal/obs"
)

// diffScenario is one differential configuration: the sharded engine must
// match the legacy oracle byte for byte on every derived quantity.
type diffScenario struct {
	name     string
	server   compute.ServerSpec
	queueCap int
	chaos    bool
}

func diffScenarios() []diffScenario {
	return []diffScenario{
		{name: "plain", server: compute.ServerSpec{Cores: 8, MemoryGB: 64, PowerCapFraction: 1}},
		{name: "tight", server: compute.ServerSpec{Cores: 1, MemoryGB: 8, PowerCapFraction: 1}, queueCap: 2},
		{name: "chaos", server: compute.ServerSpec{Cores: 2, MemoryGB: 16, PowerCapFraction: 1}, chaos: true},
	}
}

func (sc diffScenario) config(t testing.TB, c *constellation.Constellation, p Policy) Config {
	t.Helper()
	cfg := Config{
		Sites:      testSites(),
		Policy:     p,
		Server:     sc.server,
		QueueCap:   sc.queueCap,
		RefreshSec: 15,
	}
	if sc.chaos {
		// Moderate failure pressure: a changing mix of up and down
		// satellites at each refresh, so sat_down shedding and candidate
		// churn both happen without killing the whole constellation.
		inj, err := faults.New(c.Size(), faults.Config{Seed: 9, SatMTBFHours: 0.02, SatMTTRSec: 120})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
	}
	return cfg
}

// runShardedSteps drives the sharded engine like fleetsim does: fed once,
// advanced in fixed steps (deliberately unaligned with RefreshSec so slices
// split across RunUntil calls).
func runShardedSteps(t testing.TB, c *constellation.Constellation, cfg Config, reqs []Request, horizon, step float64) Result {
	t.Helper()
	eng, err := NewEngine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(reqs); err != nil {
		t.Fatal(err)
	}
	for ts := step; ts < horizon; ts += step {
		eng.RunUntil(ts)
	}
	eng.RunUntil(horizon)
	return eng.Result()
}

func runLegacyOracle(t testing.TB, c *constellation.Constellation, cfg Config, reqs []Request, horizon float64) Result {
	t.Helper()
	eng, err := newLegacyEngine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(reqs); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(horizon)
	return eng.Result()
}

// renderResult canonicalizes a Result into a byte string: every counter,
// per-reason sheds in report order, latency quantiles, and per-satellite
// utilization, all at full float precision.
func renderResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s offered=%d served=%d inflight=%d sats=%d peakq=%d\n",
		r.Policy, r.Offered, r.Served, r.InFlight, r.SatsUsed, r.PeakQueued)
	for _, reason := range ShedReasons {
		fmt.Fprintf(&b, "shed[%s]=%d\n", reason, r.Shed[reason])
	}
	fmt.Fprintf(&b, "lat n=%d", r.LatencyMs.N())
	if r.LatencyMs.N() > 0 {
		fmt.Fprintf(&b, " min=%x max=%x mean=%x p50=%x p90=%x p99=%x p999=%x",
			r.LatencyMs.Min(), r.LatencyMs.Max(), r.LatencyMs.Mean(),
			r.LatencyMs.Quantile(0.5), r.LatencyMs.Quantile(0.9),
			r.LatencyMs.Quantile(0.99), r.LatencyMs.Quantile(0.999))
	}
	b.WriteString("\nutil=")
	for i, u := range r.Utilization {
		if u != 0 {
			fmt.Fprintf(&b, "%d:%x ", i, u)
		}
	}
	b.WriteString("\n")
	return b.String()
}

// TestShardedMatchesLegacy is the differential pin: for every policy and
// scenario, the engine's results are identical to the netsim oracle —
// counters, shed reasons, peak queue, utilization, and the full shape of
// the latency distribution.
func TestShardedMatchesLegacy(t *testing.T) {
	c := testConst(t)
	reqs := testTrace(t, 300, 60)
	for _, p := range Policies() {
		for _, sc := range diffScenarios() {
			oracle := renderResult(runLegacyOracle(t, c, sc.config(t, c, p), reqs, 90))
			got := renderResult(runShardedSteps(t, c, sc.config(t, c, p), reqs, 90, 10))
			if got != oracle {
				t.Errorf("%s/%s diverged from legacy:\n got: %s\nwant: %s", p.Name(), sc.name, got, oracle)
			}
		}
	}
}

// boundaryTrace is a hand-built trace that lands where the generated ones
// never do: several arrivals per site at exactly k x refreshSec (k = 0..6),
// plus mid-slice arrivals between them, plus one site-0 arrival at the very
// instant the site's first request completes on a satellite oneWaySec away
// (the three t=0 requests fill a 1-core, 2-queue satellite, so whether the
// arrival or the completion goes first decides a queue_full shed). Service
// times differ per request so no two completions coincide.
func boundaryTrace(refreshSec, oneWaySec float64) []Request {
	var reqs []Request
	svc := 3.0
	add := func(tSec float64, site int) {
		reqs = append(reqs, Request{TSec: tSec, Site: site, ServiceMs: svc})
		svc += 0.37
	}
	nsites := len(testSites())
	for k := 0; k <= 6; k++ {
		base := float64(k) * refreshSec
		for rep := 0; rep < 3; rep++ {
			for site := 0; site < nsites; site++ {
				add(base, site)
			}
		}
		if k == 0 {
			add(oneWaySec+reqs[0].ServiceMs/1000, 0)
		}
		if k == 6 {
			break
		}
		for j := 1; j <= 4; j++ {
			add(base+float64(j)*refreshSec/5, j%nsites)
		}
	}
	return reqs
}

// TestBoundaryArrivalsMatchLegacy pins the two tie rules at refresh
// boundaries against the oracle: arrivals at exactly the first boundary land
// after that refresh (excludeAtHi), arrivals at later boundaries land before
// it, and an arrival beats an event at the same instant. RunUntil steps of
// one refresh, 10 s and half a refresh put the boundaries at the end of a
// call, inside one, and at both.
func TestBoundaryArrivalsMatchLegacy(t *testing.T) {
	c := testConst(t)
	probe, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), RefreshSec: 15})
	if err != nil {
		t.Fatal(err)
	}
	reqs := boundaryTrace(15, probe.cands[0][0].OneWayMs/1000)
	for _, p := range Policies() {
		for _, sc := range diffScenarios() {
			oracle := renderResult(runLegacyOracle(t, c, sc.config(t, c, p), reqs, 120))
			for _, step := range []float64{15, 10, 7.5} {
				got := renderResult(runShardedSteps(t, c, sc.config(t, c, p), reqs, 120, step))
				if got != oracle {
					t.Errorf("%s/%s step=%gs diverged from legacy:\n got: %s\nwant: %s",
						p.Name(), sc.name, step, got, oracle)
				}
			}
		}
	}
}

// TestTraceReplayShardingDeterminism replays one JSONL trace and
// byte-compares the reports with feeding the in-memory trace it was written
// from — the round-trip a recorded production trace would take.
func TestTraceReplayShardingDeterminism(t *testing.T) {
	c := testConst(t)
	orig := testTrace(t, 400, 60)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	srv := compute.ServerSpec{Cores: 2, MemoryGB: 16, PowerCapFraction: 1}
	run := func(reqs []Request) string {
		var out strings.Builder
		for _, p := range Policies() {
			eng, err := NewEngine(c, Config{
				Sites: testSites(), Policy: p, Server: srv,
				QueueCap: 4, RefreshSec: 15,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Feed(reqs); err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(90)
			out.WriteString(renderResult(eng.Result()))
		}
		return out.String()
	}
	if mem, rep := run(orig), run(replayed); mem != rep {
		t.Fatalf("trace replay diverged from the in-memory trace:\n%s\nvs\n%s", mem, rep)
	}
}

// TestFeedNonMonotonic pins the typed error: out-of-order feeds are
// rejected instead of silently corrupting slice order.
func TestFeedNonMonotonic(t *testing.T) {
	c := testConst(t)
	eng, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), Server: testServer()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed([]Request{
		{TSec: 1, Site: 0, ServiceMs: 5},
		{TSec: 1, Site: 1, ServiceMs: 5}, // equal timestamps are fine
		{TSec: 2, Site: 0, ServiceMs: 5},
	}); err != nil {
		t.Fatalf("monotonic feed rejected: %v", err)
	}
	err = eng.Feed([]Request{{TSec: 1.5, Site: 0, ServiceMs: 5}})
	if !errors.Is(err, ErrNonMonotonic) {
		t.Fatalf("out-of-order feed: got %v, want ErrNonMonotonic", err)
	}
	eng.RunUntil(10)
	// Feeding behind the simulation clock is equally out of order.
	err = eng.Feed([]Request{{TSec: 5, Site: 0, ServiceMs: 5}})
	if !errors.Is(err, ErrNonMonotonic) {
		t.Fatalf("feed behind sim time: got %v, want ErrNonMonotonic", err)
	}
	if err := eng.Feed([]Request{{TSec: 12, Site: 0, ServiceMs: 5}}); err != nil {
		t.Fatalf("future feed after run rejected: %v", err)
	}
}

// TestShardedMetricsMatchLegacy compares the obs registry contents the two
// engines produce for an identical run.
func TestShardedMetricsMatchLegacy(t *testing.T) {
	c := testConst(t)
	reqs := testTrace(t, 200, 60)
	srv := compute.ServerSpec{Cores: 1, MemoryGB: 8, PowerCapFraction: 1}

	regL := obs.NewRegistry()
	lcfg := Config{Sites: testSites(), Policy: Nearest(), Server: srv, QueueCap: 2, RefreshSec: 15, Registry: regL}
	_ = runLegacyOracle(t, c, lcfg, reqs, 90)

	regS := obs.NewRegistry()
	scfg := lcfg
	scfg.Registry = regS
	_ = runShardedSteps(t, c, scfg, reqs, 90, 15)

	for _, name := range []string{"serve_requests_total", "serve_served_total"} {
		l := regL.CounterVec(name, "", "policy").With("nearest").Value()
		s := regS.CounterVec(name, "", "policy").With("nearest").Value()
		if l != s {
			t.Errorf("%s: legacy %d, sharded %d", name, l, s)
		}
	}
	for _, reason := range ShedReasons {
		l := regL.CounterVec("serve_shed_total", "", "policy", "reason").With("nearest", string(reason)).Value()
		s := regS.CounterVec("serve_shed_total", "", "policy", "reason").With("nearest", string(reason)).Value()
		if l != s {
			t.Errorf("serve_shed_total{%s}: legacy %d, sharded %d", reason, l, s)
		}
	}
	lq := regL.QuantileVec("serve_request_ms", "", "policy").With("nearest")
	sq := regS.QuantileVec("serve_request_ms", "", "policy").With("nearest")
	if lq.Count() != sq.Count() {
		t.Errorf("latency observations: legacy %d, sharded %d", lq.Count(), sq.Count())
	}
}
