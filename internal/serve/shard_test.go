package serve

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
	eng, err := newLegacyEngine(c, cfg, lookaheadEpochs)
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
// per-reason sheds in report order, the latency distribution, and
// per-satellite utilization, all at full float precision.
func renderResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s offered=%d served=%d inflight=%d sats=%d peakq=%d\n",
		r.Policy, r.Offered, r.Served, r.InFlight, r.SatsUsed, r.PeakQueued)
	for _, reason := range ShedReasons {
		fmt.Fprintf(&b, "shed[%s]=%d\n", reason, r.Shed[reason])
	}
	fmt.Fprintf(&b, "lat n=%d", r.LatencyMs.N())
	if r.LatencyMs.N() > 0 {
		// The CDF's points fix the whole sample multiset; a hash keeps the
		// string short.
		xs, ps := r.LatencyMs.Points()
		h := fnv.New64a()
		for i := range xs {
			fmt.Fprintf(h, "%x:%x,", xs[i], ps[i])
		}
		fmt.Fprintf(&b, " min=%x max=%x points=%x p50=%x p90=%x p99=%x p999=%x",
			r.LatencyMs.Quantile(0), r.LatencyMs.Max(), h.Sum64(),
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
// scenario, the engine's results are identical to the legacy oracle —
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

// TestFreeAtMatchesCores pins the global path's load book: after every
// RunUntil, each satellite's freeAt is the min over its cores (0 before
// its first claim), so a core claim that skips the update fails here.
func TestFreeAtMatchesCores(t *testing.T) {
	c := testConst(t)
	reqs := testTrace(t, 300, 60)
	for _, sc := range diffScenarios() {
		eng, err := NewEngine(c, sc.config(t, c, LeastLoaded()))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Feed(reqs); err != nil {
			t.Fatal(err)
		}
		claimed := 0
		for ts := 7.5; ts <= 90; ts += 7.5 {
			if err := eng.RunUntil(ts); err != nil {
				t.Fatal(err)
			}
			claimed = 0
			for s := range eng.sats {
				want := 0.0
				if cores := eng.sats[s].cores; cores != nil {
					claimed++
					want = cores[0]
					for _, b := range cores[1:] {
						want = math.Min(want, b)
					}
				}
				if got := eng.freeAt[s]; got != want {
					t.Fatalf("%s: t=%gs sat %d freeAt %x, min of its cores %x", sc.name, ts, s, got, want)
				}
			}
		}
		if claimed == 0 {
			t.Fatalf("%s: no satellite claimed a core", sc.name)
		}
	}
}

// TestPickCore pins pickCore's integer compare to the float rule the legacy
// oracle keeps: the lowest index among the earliest-free cores, and as rest
// the earliest free time among the other cores (+Inf with one core), on
// every busy-until time an engine can hold — finite or +Inf, at least +0.
func TestPickCore(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name  string
		n     int
		cores []float64 // nil: fresh, allocated by pickCore
		ci    int
		rest  float64
	}{
		{"one core", 1, []float64{5}, 0, inf},
		{"one fresh core", 1, nil, 0, inf},
		{"fresh cores", 4, nil, 0, 0},
		{"tie takes lowest", 4, []float64{3, 1, 1, 2}, 1, 1},
		{"all equal", 3, []float64{2, 2, 2}, 0, 2},
		{"min last", 3, []float64{9, 8, 7}, 2, 8},
		{"min first", 3, []float64{1, 5, 3}, 0, 3},
		{"rest after min", 4, []float64{6, 0.5, 9, 4}, 1, 4},
		{"zero and subnormal", 2, []float64{math.SmallestNonzeroFloat64, 0}, 1, math.SmallestNonzeroFloat64},
		{"top of range", 3, []float64{math.MaxFloat64, inf, 1e308}, 2, math.MaxFloat64},
	}
	for _, tc := range cases {
		e := &Engine{coresPerSat: tc.n}
		st := &satShard{cores: slices.Clone(tc.cores)}
		ci, rest := e.pickCore(st)
		if ci != tc.ci || rest != tc.rest || len(st.cores) != tc.n {
			t.Errorf("%s: pickCore = %d, %g over %d cores, want %d, %g over %d", tc.name, ci, rest, len(st.cores), tc.ci, tc.rest, tc.n)
		}
	}

	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + r.Intn(8)
		cores := make([]float64, n)
		for i := range cores {
			switch r.Intn(4) {
			case 0:
				cores[i] = float64(r.Intn(3)) // ties, zeros
			case 1:
				cores[i] = math.Ldexp(r.Float64(), r.Intn(2100)-1074) // any exponent
			default:
				cores[i] = 3600 * r.Float64()
			}
		}
		leg := &legacyEngine{coresPerSat: n, cores: [][]float64{slices.Clone(cores)}}
		wantCI, wantRest := leg.pickCore(0), inf
		for i, c := range cores {
			if i != wantCI {
				wantRest = math.Min(wantRest, c)
			}
		}
		ci, rest := (&Engine{coresPerSat: n}).pickCore(&satShard{cores: cores})
		if ci != wantCI || math.Float64bits(rest) != math.Float64bits(wantRest) {
			t.Fatalf("cores %v: pickCore = %d, %g, float rule %d, %g", cores, ci, rest, wantCI, wantRest)
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
// engines produce for an identical run. For the slice-local policies the
// latency sketch's sum bits and extremes pin the merge order: the sum folds
// exactly as the legacy engine's event order folds it only if the slice's
// samples are replayed in that order.
func TestShardedMetricsMatchLegacy(t *testing.T) {
	c := testConst(t)
	reqs := testTrace(t, 200, 60)
	srv := compute.ServerSpec{Cores: 1, MemoryGB: 8, PowerCapFraction: 1}

	for _, p := range []Policy{Nearest(), Sticky(0)} {
		name := p.Name()
		regL := obs.NewRegistry()
		lcfg := Config{Sites: testSites(), Policy: p, Server: srv, QueueCap: 2, RefreshSec: 15, Registry: regL}
		_ = runLegacyOracle(t, c, lcfg, reqs, 90)

		regS := obs.NewRegistry()
		scfg := lcfg
		scfg.Registry = regS
		_ = runShardedSteps(t, c, scfg, reqs, 90, 15)

		for _, fam := range []string{"serve_requests_total", "serve_served_total"} {
			l := regL.CounterVec(fam, "", "policy").With(name).Value()
			s := regS.CounterVec(fam, "", "policy").With(name).Value()
			if l != s {
				t.Errorf("%s %s: legacy %d, sharded %d", name, fam, l, s)
			}
		}
		for _, reason := range ShedReasons {
			l := regL.CounterVec("serve_shed_total", "", "policy", "reason").With(name, string(reason)).Value()
			s := regS.CounterVec("serve_shed_total", "", "policy", "reason").With(name, string(reason)).Value()
			if l != s {
				t.Errorf("%s serve_shed_total{%s}: legacy %d, sharded %d", name, reason, l, s)
			}
		}
		lq := regL.QuantileVec("serve_request_ms", "", "policy").With(name)
		sq := regS.QuantileVec("serve_request_ms", "", "policy").With(name)
		if lq.Count() == 0 || lq.Count() != sq.Count() {
			t.Errorf("%s latency observations: legacy %d, sharded %d", name, lq.Count(), sq.Count())
		}
		if math.Float64bits(lq.Sum()) != math.Float64bits(sq.Sum()) {
			t.Errorf("%s latency sum: legacy %v, sharded %v (bits differ: samples merged out of order)", name, lq.Sum(), sq.Sum())
		}
		if lq.Min() != sq.Min() || lq.Max() != sq.Max() {
			t.Errorf("%s latency extremes: legacy [%v, %v], sharded [%v, %v]", name, lq.Min(), lq.Max(), sq.Min(), sq.Max())
		}
	}
}

// TestFeedRejectsWholeBatch: a batch with a bad request anywhere in it
// leaves the engine as it was — nothing queued, the monotonic floor where
// it stood.
func TestFeedRejectsWholeBatch(t *testing.T) {
	c := testConst(t)
	newEng := func() *Engine {
		eng, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), Server: testServer()})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	bad := []Request{
		{TSec: 50, Site: 0, ServiceMs: 5},
		{TSec: 60, Site: 1, ServiceMs: 5},
		{TSec: 70, Site: len(testSites()), ServiceMs: 5},
	}

	eng := newEng()
	if err := eng.Feed(bad); err == nil {
		t.Fatal("batch with an out-of-range site accepted")
	}
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if r := eng.Result(); r.Offered != 0 {
		t.Fatalf("rejected batch left %d requests in the engine", r.Offered)
	}

	eng = newEng()
	if err := eng.Feed(bad); err == nil {
		t.Fatal("batch with an out-of-range site accepted")
	}
	if err := eng.Feed([]Request{{TSec: 20, Site: 0, ServiceMs: 5}}); err != nil {
		t.Fatalf("batch before the rejected batch's times refused: %v", err)
	}
	if err := eng.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if r := eng.Result(); r.Offered != 1 || r.Served != 1 {
		t.Fatalf("offered %d served %d, want the one accepted request", r.Offered, r.Served)
	}
}

// runsSource yields preset runs, then ends.
type runsSource [][]Request

func (s *runsSource) Next() []Request {
	if len(*s) == 0 {
		return nil
	}
	run := (*s)[0]
	*s = (*s)[1:]
	return run
}

// TestSourcesAgree: the arrival path has one behaviour however the
// arrivals reach it — the whole trace in one Feed, ragged batches fed
// between RunUntil calls (one cut exactly on a refresh boundary, two batches
// queued at once), or the generator pulled directly.
func TestSourcesAgree(t *testing.T) {
	c := testConst(t)
	w := Workload{Seed: 21, RatePerSec: 300, ServiceMedianMs: 5}
	const horizon, end = 60, 90
	reqs, err := Generate(testSites(), w, horizon)
	if err != nil {
		t.Fatal(err)
	}
	run := func(eng *Engine, until float64) {
		t.Helper()
		if err := eng.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range Policies() {
		for _, sc := range diffScenarios() {
			if sc.name == "tight" {
				continue
			}
			newEng := func() *Engine {
				eng, err := NewEngine(c, sc.config(t, c, p))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			whole := renderResult(runShardedSteps(t, c, sc.config(t, c, p), reqs, end, 10))

			// RefreshSec is 15: the cut at 30 is a refresh boundary, and the
			// batches for [30, 41.5) and [41.5, 52) are queued together.
			ragged := newEng()
			lo := 0
			for _, cut := range []struct {
				t    float64
				runs bool
			}{{7.3, true}, {30, true}, {41.5, false}, {52, true}, {horizon, true}} {
				hi := lo
				for hi < len(reqs) && reqs[hi].TSec < cut.t {
					hi++
				}
				if err := ragged.Feed(reqs[lo:hi]); err != nil {
					t.Fatal(err)
				}
				lo = hi
				if cut.runs {
					run(ragged, cut.t)
				}
			}
			run(ragged, end)
			if got := renderResult(ragged.Result()); got != whole {
				t.Errorf("%s/%s ragged feeds diverged:\n got: %s\nwant: %s", p.Name(), sc.name, got, whole)
			}

			pulled := newEng()
			g, err := NewGenerator(testSites(), w, horizon)
			if err != nil {
				t.Fatal(err)
			}
			pulled.FeedFrom(g)
			for ts := 10.0; ts <= end; ts += 10 {
				run(pulled, ts)
			}
			if got := renderResult(pulled.Result()); got != whole {
				t.Errorf("%s/%s generator-fed diverged:\n got: %s\nwant: %s", p.Name(), sc.name, got, whole)
			}
		}
	}
}

// syntheticTrace is a cheap deterministic trace: n arrivals evenly spaced
// over horizonSec, round-robin over the test sites.
func syntheticTrace(n int, horizonSec float64) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			TSec:      horizonSec * float64(i) / float64(n),
			Site:      i % len(testSites()),
			ServiceMs: 2 + float64(i%7),
		}
	}
	return reqs
}

// TestFeedSharesTrace: Feed keeps the caller's slice, so three engines fed
// one trace allocate next to nothing beyond their latency reservations, and
// a full run leaves the slice as it was.
func TestFeedSharesTrace(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	const horizon = 300
	c := testConst(t)
	reqs := syntheticTrace(n, horizon)
	var engines []*Engine
	for _, p := range Policies() {
		eng, err := NewEngine(c, Config{Sites: testSites(), Policy: p, Server: testServer(), QueueCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, eng := range engines {
		if err := eng.Feed(reqs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	traceBytes := uint64(n) * uint64(unsafe.Sizeof(Request{}))
	reserved := uint64(len(engines)) * uint64(n) * 8
	extra := int64(after.TotalAlloc-before.TotalAlloc) - int64(reserved)
	if extra > int64(traceBytes/100) {
		t.Fatalf("feeding %d engines allocated %d bytes beyond the latency reservations, over 1%% of the %d-byte trace",
			len(engines), extra, traceBytes)
	}
	for _, eng := range engines {
		if err := eng.RunUntil(horizon + 30); err != nil {
			t.Fatal(err)
		}
		if r := eng.Result(); r.Offered != n {
			t.Fatalf("%s offered %d of %d", r.Policy, r.Offered, n)
		}
	}
	sameTrace(t, "the fed slice after the run", reqs, syntheticTrace(n, horizon))
}

// TestPulledSourceRejectsBadArrival: arrivals a source yields are held to
// Feed's contract as they are pulled. The bad one and everything behind it
// are never simulated, and RunUntil reports it, on that call and after.
func TestPulledSourceRejectsBadArrival(t *testing.T) {
	c := testConst(t)
	ok := func(tSec float64) Request { return Request{TSec: tSec, Site: 0, ServiceMs: 5} }
	cases := []struct {
		name       string
		bad        Request
		monotonic  bool
		wantInText string
	}{
		{"NaN time", Request{TSec: math.NaN(), Site: 0, ServiceMs: 5}, false, "must be finite"},
		{"site out of range", Request{TSec: 3, Site: len(testSites()), ServiceMs: 5}, false, "out of range"},
		{"time step backwards", ok(1.5), true, ""},
	}
	for _, tc := range cases {
		// The bad arrival mid-run, and as the first of a later run.
		for _, runs := range []runsSource{
			{{ok(1), ok(2), tc.bad, ok(4)}, {ok(5)}},
			{{ok(1), ok(2)}, {tc.bad, ok(4)}},
		} {
			eng, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), Server: testServer()})
			if err != nil {
				t.Fatal(err)
			}
			eng.FeedFrom(&runs)
			err = eng.RunUntil(10)
			if err == nil {
				t.Fatalf("%s: RunUntil accepted it", tc.name)
			}
			if errors.Is(err, ErrNonMonotonic) != tc.monotonic || !strings.Contains(err.Error(), tc.wantInText) {
				t.Fatalf("%s: wrong error: %v", tc.name, err)
			}
			if r := eng.Result(); r.Offered != 2 || r.Served != 2 {
				t.Fatalf("%s: offered %d served %d, want the 2 arrivals before it", tc.name, r.Offered, r.Served)
			}
			if ferr := eng.Feed([]Request{ok(15)}); ferr != nil {
				t.Fatal(ferr)
			}
			if again := eng.RunUntil(20); again == nil || again.Error() != err.Error() {
				t.Fatalf("%s: later RunUntil returned %v, want %v again", tc.name, again, err)
			}
			if r := eng.Result(); r.Offered != 2 {
				t.Fatalf("%s: arrivals behind the bad one were simulated (offered %d)", tc.name, r.Offered)
			}
		}
	}
}

// TestFedBatchBehindSourceRejected: a batch passes Feed against the last
// fed time, so one queued behind a FeedFrom source whose arrivals are later
// is caught only when it is pulled, at its first arrival — which is all
// the pull checks of a fed batch. A batch that starts at or after the
// source's last arrival runs whole.
func TestFedBatchBehindSourceRejected(t *testing.T) {
	c := testConst(t)
	ok := func(tSec float64) Request { return Request{TSec: tSec, Site: 0, ServiceMs: 5} }
	for _, tc := range []struct {
		batch   []Request
		offered int
		wantErr string
	}{
		{[]Request{ok(15), ok(25)}, 2, "serve: arrival 2: t=15s before earlier arrival t=20s"},
		{[]Request{ok(20), ok(25), ok(26)}, 5, ""},
	} {
		eng, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), Server: testServer()})
		if err != nil {
			t.Fatal(err)
		}
		eng.FeedFrom(&runsSource{{ok(10), ok(20)}})
		if err := eng.Feed(tc.batch); err != nil {
			t.Fatalf("Feed rejected a batch sorted from 0: %v", err)
		}
		err = eng.RunUntil(30)
		if tc.wantErr == "" {
			if err != nil {
				t.Fatalf("batch from %gs: %v", tc.batch[0].TSec, err)
			}
		} else if !errors.Is(err, ErrNonMonotonic) || !strings.HasPrefix(err.Error(), tc.wantErr) {
			t.Fatalf("batch from %gs: got %v, want %q wrapping ErrNonMonotonic", tc.batch[0].TSec, err, tc.wantErr)
		}
		if r := eng.Result(); r.Offered != tc.offered {
			t.Fatalf("batch from %gs: offered %d, want %d", tc.batch[0].TSec, r.Offered, tc.offered)
		}
	}
}

// TestPulledHourStaysSmall: a 10 M-request hour pulled from the generator
// never exists as a trace, so the heap holds the in-flight requests, one
// run, and the latency samples — ROADMAP item 6's "under 400 MB". HeapSys
// never shrinks, so what earlier tests in this process mapped is taken off;
// run alone (as CI does) the baseline is a few MB and the bound is exact.
func TestPulledHourStaysSmall(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("10 M requests")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := testConst(t)
	sites := SitesFromCities(40)
	// The first hour of the day sits below the diurnal mean at these sites:
	// 3700 req/s nominal is 10.2 M arrivals.
	g, err := NewGenerator(sites, Workload{Seed: 1, RatePerSec: 3700, ServiceMedianMs: 20, DiurnalAmplitude: 0.6}, 3600)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(c, Config{Sites: sites, Policy: Nearest(), Server: testServer()})
	if err != nil {
		t.Fatal(err)
	}
	eng.FeedFrom(g)
	for ts := 60.0; ts <= 3600; ts += 60 {
		if err := eng.RunUntil(ts); err != nil {
			t.Fatal(err)
		}
	}
	r := eng.Result()
	if r.Offered < 10_000_000 {
		t.Fatalf("offered only %d requests", r.Offered)
	}
	runtime.ReadMemStats(&after)
	grew := (after.HeapSys - before.HeapSys) >> 20
	t.Logf("offered %d served %d, HeapSys %d MB (+%d MB over the test)", r.Offered, r.Served, after.HeapSys>>20, grew)
	if grew > 400 {
		t.Fatalf("HeapSys grew %d MB over a pulled 10 M-request hour, want under 400 MB", grew)
	}
}

// TestSortRecsAllocatesNothing: the merge sort runs on the stack, whatever
// the slice's length.
func TestSortRecsAllocatesNothing(t *testing.T) {
	recs := make([]mergeRec, 21000)
	r := rand.New(rand.NewSource(3))
	for i := range recs {
		recs[i] = mergeRec{t: 1500 + 60*r.Float64(), owner: int32(i)}
	}
	if a := testing.AllocsPerRun(5, func() { sortRecs(recs, false) }); a != 0 {
		t.Errorf("sortRecs allocated %v times", a)
	}
	if !slices.IsSortedFunc(recs, byTimeOwner) {
		t.Error("sortRecs left the records out of order")
	}
}
