package serve

import (
	"math"
	"testing"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/obs"
)

func testConst(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("e", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 24, PhaseFactor: 5, MinElevationDeg: 15},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testSites() []Site {
	return []Site{
		{Name: "abuja", Loc: geo.LatLon{LatDeg: 9.06, LonDeg: 7.49}, Weight: 1},
		{Name: "sao-paulo", Loc: geo.LatLon{LatDeg: -23.53, LonDeg: -46.63}, Weight: 1},
	}
}

func testServer() compute.ServerSpec {
	return compute.ServerSpec{Cores: 8, MemoryGB: 64, PowerCapFraction: 1}
}

func testTrace(t testing.TB, rate float64, horizonSec float64) []Request {
	t.Helper()
	reqs, err := Generate(testSites(), Workload{Seed: 21, RatePerSec: rate, ServiceMedianMs: 5}, horizonSec)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func runPolicy(t testing.TB, p Policy, rate float64, cfg Config) Result {
	t.Helper()
	c := testConst(t)
	cfg.Sites = testSites()
	cfg.Policy = p
	if cfg.Server == (compute.ServerSpec{}) {
		cfg.Server = testServer()
	}
	if cfg.RefreshSec == 0 {
		cfg.RefreshSec = 15
	}
	eng, err := NewEngine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(testTrace(t, rate, 60)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(90)
	return eng.Result()
}

func TestEngineLightLoad(t *testing.T) {
	r := runPolicy(t, Nearest(), 20, Config{})
	if r.Offered < 60*20/2 {
		t.Fatalf("offered only %d requests", r.Offered)
	}
	if r.Served != r.Offered-r.ShedTotal()-r.InFlight {
		t.Fatalf("accounting broken: %+v", r)
	}
	if r.ShedTotal() > 0 {
		t.Fatalf("light load shed %d requests: %v", r.ShedTotal(), r.Shed)
	}
	// End-to-end = 2x propagation + service: above the physical floor
	// (550 km at lightspeed, twice) and far below any queueing regime.
	med := r.LatencyMs.Median()
	if med < 2*550.0/299792.458*1000 {
		t.Fatalf("median %v ms below the physical floor", med)
	}
	if med > 50 {
		t.Fatalf("light-load median %v ms implies queueing", med)
	}
	if r.SatsUsed < 1 || r.SatsUsed > 8 {
		t.Fatalf("nearest policy used %d satellites", r.SatsUsed)
	}
	for id, u := range r.Utilization {
		if u < 0 || u > 1 {
			t.Fatalf("satellite %d utilization %v out of range", id, u)
		}
	}
}

func TestEngineDeterministic(t *testing.T) {
	for _, p := range Policies() {
		a := runPolicy(t, p, 100, Config{})
		b := runPolicy(t, p, 100, Config{})
		if a.Served != b.Served || a.ShedTotal() != b.ShedTotal() ||
			a.LatencyMs.Quantile(0.99) != b.LatencyMs.Quantile(0.99) ||
			a.SatsUsed != b.SatsUsed {
			t.Fatalf("%s not deterministic: %+v vs %+v", p.Name(), a, b)
		}
	}
}

func TestLeastLoadedSpreadsOverload(t *testing.T) {
	// One core per satellite at 5 ms/request sustains 200 req/s; offer ~600
	// per site so nearest saturates its single footprint satellite.
	srv := compute.ServerSpec{Cores: 1, MemoryGB: 8, PowerCapFraction: 1}
	rn := runPolicy(t, Nearest(), 1200, Config{Server: srv})
	rl := runPolicy(t, LeastLoaded(), 1200, Config{Server: srv})
	if rl.SatsUsed <= rn.SatsUsed {
		t.Fatalf("least-loaded used %d satellites vs nearest %d", rl.SatsUsed, rn.SatsUsed)
	}
	if rl.LatencyMs.Quantile(0.99) >= rn.LatencyMs.Quantile(0.99) {
		t.Fatalf("least-loaded p99 %v not below nearest %v",
			rl.LatencyMs.Quantile(0.99), rn.LatencyMs.Quantile(0.99))
	}
}

func TestQueueFullSheds(t *testing.T) {
	srv := compute.ServerSpec{Cores: 1, MemoryGB: 8, PowerCapFraction: 1}
	r := runPolicy(t, Nearest(), 2000, Config{Server: srv, QueueCap: 4})
	if r.Shed[ShedQueueFull] == 0 {
		t.Fatalf("bounded queue never shed under overload: %+v", r)
	}
	if r.PeakQueued == 0 {
		t.Fatal("no queueing observed under overload")
	}
	// Unbounded queue absorbs the same load without shedding.
	u := runPolicy(t, Nearest(), 2000, Config{Server: srv, QueueCap: -1})
	if u.Shed[ShedQueueFull] != 0 {
		t.Fatalf("unbounded queue shed %d requests", u.Shed[ShedQueueFull])
	}
}

func TestNoCoverageSheds(t *testing.T) {
	c := testConst(t)
	eng, err := NewEngine(c, Config{
		Sites:  []Site{{Name: "pole", Loc: geo.LatLon{LatDeg: 89.0}, Weight: 1}},
		Policy: Nearest(),
		Server: testServer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed([]Request{{TSec: 1, Site: 0, ServiceMs: 5}, {TSec: 2, Site: 0, ServiceMs: 5}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10)
	r := eng.Result()
	if r.Shed[ShedNoCoverage] != 2 || r.Served != 0 {
		t.Fatalf("polar site: %+v", r)
	}
}

func TestFaultsShedGracefully(t *testing.T) {
	c := testConst(t)
	// Seconds-scale MTBF with an hour-long MTTR: the whole constellation is
	// down by the first refresh, so every later request sheds as sat_down.
	inj, err := faults.New(c.Size(), faults.Config{Seed: 9, SatMTBFHours: 0.0005, SatMTTRSec: 3600})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(c, Config{
		Sites:      testSites(),
		Policy:     LeastLoaded(),
		Server:     testServer(),
		RefreshSec: 15,
		Faults:     inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(testTrace(t, 50, 60)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(90)
	r := eng.Result()
	if r.Shed[ShedSatDown] == 0 {
		t.Fatalf("no sat_down sheds under total failure: %+v", r)
	}
	if r.Served+r.ShedTotal()+r.InFlight != r.Offered {
		t.Fatalf("accounting broken under faults: %+v", r)
	}
}

func TestStickyHoldsAffinity(t *testing.T) {
	r := runPolicy(t, Sticky(0), 50, Config{})
	if r.Served == 0 {
		t.Fatalf("sticky served nothing: %+v", r)
	}
	// Affinity means fewer distinct satellites than request spreading.
	if r.SatsUsed > 2*len(testSites())+2 {
		t.Fatalf("sticky used %d satellites", r.SatsUsed)
	}
}

func TestEngineMetrics(t *testing.T) {
	c := testConst(t)
	reg := obs.NewRegistry()
	eng, err := NewEngine(c, Config{
		Sites:    testSites(),
		Policy:   Nearest(),
		Server:   testServer(),
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(testTrace(t, 20, 30)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(60)
	r := eng.Result()
	req := reg.CounterVec("serve_requests_total", "", "policy").With("nearest")
	srv := reg.CounterVec("serve_served_total", "", "policy").With("nearest")
	if int(req.Value()) != r.Offered || int(srv.Value()) != r.Served {
		t.Fatalf("metrics disagree with result: req=%d srv=%d vs %+v",
			req.Value(), srv.Value(), r)
	}
	q := reg.QuantileVec("serve_request_ms", "", "policy").With("nearest")
	if int(q.Count()) != r.Served {
		t.Fatalf("latency quantile count %d, served %d", q.Count(), r.Served)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	c := testConst(t)
	if _, err := NewEngine(nil, Config{Sites: testSites(), Policy: Nearest()}); err == nil {
		t.Fatal("nil constellation accepted")
	}
	if _, err := NewEngine(c, Config{Policy: Nearest()}); err == nil {
		t.Fatal("no sites accepted")
	}
	if _, err := NewEngine(c, Config{Sites: testSites()}); err == nil {
		t.Fatal("nil policy accepted")
	}
	bad := compute.ServerSpec{Cores: 4, MemoryGB: 64, PowerCapFraction: 2}
	if _, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), Server: bad}); err == nil {
		t.Fatal("invalid server spec accepted")
	}
	inj, err := faults.New(3, faults.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), Faults: inj}); err == nil {
		t.Fatal("mis-sized fault injector accepted")
	}
	for _, q := range []int{-2, -7, math.MinInt} {
		if _, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), QueueCap: q}); err == nil {
			t.Fatalf("queue cap %d accepted", q)
		}
	}
	for _, q := range []int{-1, 0, 1} {
		if _, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), QueueCap: q}); err != nil {
			t.Fatalf("queue cap %d refused: %v", q, err)
		}
	}
	eng, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), Server: testServer()})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name string
		req  Request
	}{
		{"out-of-range site", Request{TSec: 1, Site: 99, ServiceMs: 5}},
		{"zero service time", Request{TSec: 1, Site: 0, ServiceMs: 0}},
		{"NaN arrival", Request{TSec: math.NaN(), Site: 0, ServiceMs: 5}},
		{"+Inf arrival", Request{TSec: math.Inf(1), Site: 0, ServiceMs: 5}},
		{"+Inf service time", Request{TSec: 1, Site: 0, ServiceMs: math.Inf(1)}},
		{"NaN service time", Request{TSec: 1, Site: 0, ServiceMs: math.NaN()}},
	} {
		if err := eng.Feed([]Request{bad.req}); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
	eng.RunUntil(10)
	if r := eng.Result(); r.Offered != 0 {
		t.Fatalf("%d rejected requests reached the engine", r.Offered)
	}
}
