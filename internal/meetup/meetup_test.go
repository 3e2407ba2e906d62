package meetup

import (
	"errors"
	"math"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/isl"
)

// toyConst builds a dense-enough single shell so small regional groups
// always have several eligible satellites.
func toyConst(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("toy", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 32, SatsPerPlane: 32, PhaseFactor: 11, MinElevationDeg: 20},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func westAfrica() []geo.LatLon {
	return []geo.LatLon{
		{LatDeg: 9.06, LonDeg: 7.49},
		{LatDeg: 3.87, LonDeg: 11.52},
		{LatDeg: 5.60, LonDeg: -0.19},
	}
}

func newPlanner(t testing.TB, c *constellation.Constellation, users []geo.LatLon, cfg Config) (*Planner, *Provider) {
	t.Helper()
	grid := isl.NewPlusGrid(c)
	p, err := NewPlanner(c, grid, users, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, NewProvider(c)
}

func TestNewPlannerValidation(t *testing.T) {
	c := toyConst(t)
	grid := isl.NewPlusGrid(c)
	if _, err := NewPlanner(c, grid, nil, Config{}); err == nil {
		t.Fatal("empty group should fail")
	}
	if _, err := NewPlanner(c, grid, []geo.LatLon{{LatDeg: 91}}, Config{}); err == nil {
		t.Fatal("invalid location should fail")
	}
}

func TestPolicyString(t *testing.T) {
	if MinMax.String() != "minmax" || Sticky.String() != "sticky" {
		t.Fatal("Policy.String wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.LatencyBand != 0.10 || c.PoolSize != 5 {
		t.Fatalf("defaults = %+v", c)
	}
	// Explicit values survive.
	c2 := Config{LatencyBand: 0.2, PoolSize: 3, LookaheadStepSec: 1, LookaheadHorizonSec: 60}.withDefaults()
	if c2.LatencyBand != 0.2 || c2.PoolSize != 3 || c2.LookaheadStepSec != 1 || c2.LookaheadHorizonSec != 60 {
		t.Fatalf("explicit config overridden: %+v", c2)
	}
}

func TestEligibleAllVisible(t *testing.T) {
	c := toyConst(t)
	p, prov := newPlanner(t, c, westAfrica(), Config{})
	snap := prov.At(0)
	elig := p.Eligible(snap, nil)
	if len(elig) == 0 {
		t.Fatal("no eligible satellite for a compact group on a dense shell")
	}
	for _, cand := range elig {
		rtt, ok := p.groupRTT(snap[cand.SatID], cand.SatID)
		if !ok {
			t.Fatalf("eligible sat %d not visible to all", cand.SatID)
		}
		if math.Abs(rtt-cand.GroupRTTMs) > 1e-9 {
			t.Fatalf("RTT mismatch for %d", cand.SatID)
		}
		// Group RTT bounded: at least the overhead RTT, at most the mask
		// worst-case.
		if cand.GroupRTTMs < 3.6 || cand.GroupRTTMs > 20 {
			t.Fatalf("group RTT %v ms out of plausible range", cand.GroupRTTMs)
		}
	}
}

func TestSelectMinMaxIsOptimal(t *testing.T) {
	c := toyConst(t)
	p, prov := newPlanner(t, c, westAfrica(), Config{})
	snap := prov.At(120)
	best, err := p.SelectMinMax(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range p.Eligible(snap, nil) {
		if cand.GroupRTTMs < best.GroupRTTMs-1e-9 {
			t.Fatalf("MinMax %v beaten by %v", best, cand)
		}
	}
}

func TestSelectMinMaxNoCandidate(t *testing.T) {
	// An equatorial-only shell cannot serve a polar group.
	c, err := constellation.Build("eq", []constellation.Shell{
		{Name: "eq", AltitudeKm: 550, InclinationDeg: 0, Planes: 2, SatsPerPlane: 10, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, prov := newPlanner(t, c, []geo.LatLon{{LatDeg: 80, LonDeg: 0}}, Config{})
	if _, err := p.SelectMinMax(prov.At(0)); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("err = %v, want ErrNoCandidate", err)
	}
	if _, err := p.SelectSticky(prov, 0); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("sticky err = %v, want ErrNoCandidate", err)
	}
}

func TestStickyWithinLatencyBand(t *testing.T) {
	c := toyConst(t)
	cfg := DefaultConfig()
	p, prov := newPlanner(t, c, westAfrica(), cfg)
	mm, err := p.SelectMinMax(prov.At(0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.SelectSticky(prov, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupRTTMs > mm.GroupRTTMs*(1+cfg.LatencyBand)+1e-9 {
		t.Fatalf("Sticky RTT %v exceeds band over MinMax %v", st.GroupRTTMs, mm.GroupRTTMs)
	}
}

// TestSelectStickyScratchReuse: a planner that has run many selections picks
// what a fresh planner picks — nothing leaks between calls through the
// planner-owned scratch.
func TestSelectStickyScratchReuse(t *testing.T) {
	c := toyConst(t)
	reused, prov := newPlanner(t, c, westAfrica(), Config{})
	for t0 := 0.0; t0 <= 1800; t0 += 90 {
		fresh, _ := newPlanner(t, c, westAfrica(), Config{})
		want, errW := fresh.SelectSticky(prov, t0)
		got, errG := reused.SelectSticky(prov, t0)
		if got != want || !errors.Is(errG, errW) {
			t.Fatalf("t0=%v: reused planner picked %+v (%v), fresh planner %+v (%v)", t0, got, errG, want, errW)
		}
	}
}

func TestStickyHoldsLongerThanMinMax(t *testing.T) {
	// The paper's core claim (Fig 6): Sticky's time between hand-offs is a
	// multiple of MinMax's. Needs the real multi-shell constellation —
	// single sparse shells leave only one eligible satellite at a time and
	// the policies degenerate to the same behaviour.
	if testing.Short() {
		t.Skip("full constellation simulation")
	}
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A regional friend group around Abuja (few hundred km spread).
	tight := []geo.LatLon{
		{LatDeg: 9.06, LonDeg: 7.49},
		{LatDeg: 8.50, LonDeg: 9.00},
		{LatDeg: 10.20, LonDeg: 6.30},
	}
	p, prov := newPlanner(t, c, tight, Config{})

	mm, err := p.Simulate(prov, MinMax, 0, 3600, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Simulate(prov, Sticky, 0, 3600, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.Handoffs) == 0 {
		t.Fatal("MinMax produced no hand-offs in an hour")
	}
	if len(st.Handoffs) >= len(mm.Handoffs) {
		t.Fatalf("Sticky hand-offs (%d) not fewer than MinMax (%d)", len(st.Handoffs), len(mm.Handoffs))
	}
	mean := func(r SessionResult) float64 {
		if len(r.Handoffs) == 0 {
			return r.DurationSec
		}
		sum := 0.0
		for _, h := range r.Handoffs {
			sum += h.HeldSec
		}
		return sum / float64(len(r.Handoffs))
	}
	if mean(st) < 1.4*mean(mm) {
		t.Fatalf("Sticky mean hold %.0fs vs MinMax %.0fs — expected ≥1.4x", mean(st), mean(mm))
	}
	// And the latency premium stays small (the paper: ~1.4 ms for the West
	// Africa group).
	if st.RTT.Mean() > mm.RTT.Mean()+4 {
		t.Fatalf("Sticky mean RTT %.2f ms too far above MinMax %.2f ms", st.RTT.Mean(), mm.RTT.Mean())
	}
}

func TestSimulateAccounting(t *testing.T) {
	c := toyConst(t)
	p, prov := newPlanner(t, c, westAfrica(), Config{})
	res, err := p.Simulate(prov, MinMax, 0, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != MinMax || res.DurationSec != 1200 {
		t.Fatalf("result header wrong: %+v", res)
	}
	prevT := 0.0
	for _, h := range res.Handoffs {
		if h.TimeSec <= prevT {
			t.Fatalf("hand-offs out of order at %v", h.TimeSec)
		}
		if h.From == h.To {
			t.Fatalf("self hand-off: %+v", h)
		}
		if h.HeldSec <= 0 {
			t.Fatalf("non-positive hold: %+v", h)
		}
		if h.TransferMs < 0 || h.TransferMs > 50 {
			t.Fatalf("transfer latency implausible: %+v", h)
		}
		prevT = h.TimeSec
	}
	// Intervals + final hold = duration.
	sum := res.FinalHoldSec
	for _, h := range res.Handoffs {
		sum += h.HeldSec
	}
	if math.Abs(sum-res.DurationSec) > 1e-6 {
		t.Fatalf("hold times sum to %v, want %v", sum, res.DurationSec)
	}
	if res.RTT.N() == 0 {
		t.Fatal("no RTT samples")
	}
	ints := res.HandoffIntervals()
	trs := res.TransferLatencies()
	if len(ints) != len(res.Handoffs) || len(trs) != len(res.Handoffs) {
		t.Fatal("sample projections wrong length")
	}
}

func TestSimulateValidation(t *testing.T) {
	c := toyConst(t)
	p, prov := newPlanner(t, c, westAfrica(), Config{})
	if _, err := p.Simulate(prov, MinMax, 0, 0, 1); err == nil {
		t.Fatal("zero duration should fail")
	}
	if _, err := p.Simulate(prov, MinMax, 0, 10, 0); err == nil {
		t.Fatal("zero step should fail")
	}
	if _, err := p.Simulate(prov, Policy(42), 0, 10, 1); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestTransferLatency(t *testing.T) {
	c := toyConst(t)
	p, prov := newPlanner(t, c, westAfrica(), Config{})
	snap := prov.At(0)
	// Adjacent satellites: transfer latency equals one ISL hop.
	got, err := p.TransferLatencyMs(snap, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got > 10 {
		t.Fatalf("adjacent transfer = %v ms", got)
	}
	// Self-transfer is free.
	if self, err := p.TransferLatencyMs(snap, 3, 3); err != nil || self != 0 {
		t.Fatalf("self transfer = %v, %v", self, err)
	}
	if _, err := p.TransferLatencyMs(snap, -1, 0); err == nil {
		t.Fatal("range error expected")
	}
}

func TestProviderCaching(t *testing.T) {
	c := toyConst(t)
	prov := NewProvider(c)
	a := prov.At(100)
	b := prov.At(100)
	if &a[0] != &b[0] {
		t.Fatal("same-time snapshots should share the buffer")
	}
	first := a[0]
	_ = prov.At(200)
	back := prov.At(100)
	if back[0] != first {
		t.Fatal("re-requested snapshot differs")
	}
	if prov.Constellation() != c {
		t.Fatal("Constellation accessor wrong")
	}
}

func TestUsersAccessor(t *testing.T) {
	c := toyConst(t)
	p, _ := newPlanner(t, c, westAfrica(), Config{})
	if p.Users() != 3 {
		t.Fatalf("Users = %d", p.Users())
	}
}

func TestTimeToExpiry(t *testing.T) {
	c := toyConst(t)
	p, prov := newPlanner(t, c, westAfrica(), Config{})
	snap := prov.At(0)
	cand, err := p.SelectMinMax(snap)
	if err != nil {
		t.Fatal(err)
	}
	warn, capped := p.TimeToExpiry(prov, cand.SatID, 0)
	if capped {
		t.Skip("candidate visible beyond the lookahead horizon")
	}
	if warn <= 0 || warn > 1200 {
		t.Fatalf("warning time %v s implausible", warn)
	}
	// At t0+warn the satellite is no longer fully visible; just before, it is.
	if _, ok := p.groupRTT(prov.At(warn + p.cfg.LookaheadStepSec)[cand.SatID], cand.SatID); ok {
		t.Fatal("satellite still visible after reported expiry")
	}
	// A satellite that is already invisible expires within one step.
	for id := 0; id < c.Size(); id++ {
		if _, ok := p.groupRTT(prov.At(0)[id], id); !ok {
			w, capped2 := p.TimeToExpiry(prov, id, 0)
			if capped2 || w > p.cfg.LookaheadStepSec {
				t.Fatalf("invisible sat %d has warning %v", id, w)
			}
			break
		}
	}
}
