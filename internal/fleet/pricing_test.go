package fleet

import (
	"math"
	"testing"

	"repro/internal/compute"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/netgraph"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/visibility"
)

// oracleTransferMs is transfer pricing as it was before rows were bounded:
// the ISL leg is read off the source's full SSSP row. It prices the move
// a→b at the epoch whose satellite positions are snap, routing snapshot
// nsnap and clock now, and returns the relay price alongside.
func oracleTransferMs(o *Orchestrator, snap []geo.Vec3, nsnap *netgraph.Snapshot, now float64, a, b int, centroid geo.Vec3) (ms, relay float64) {
	relay = units.PropagationDelayMs(snap[a].Distance(centroid) + centroid.Distance(snap[b]))
	if o.c.Satellites[a].ShellIndex != o.c.Satellites[b].ShellIndex {
		return relay, relay
	}
	if f := o.cfg.Faults; f != nil && f.ISLDegraded(a, b, now) {
		return relay, relay
	}
	return math.Min(nsnap.LatencyToAllNodesInto(netgraph.NodeID(a), nil)[b], relay), relay
}

// pricingEpoch is what a Step is about to overwrite and its pricing read.
type pricingEpoch struct {
	snap []geo.Vec3
	now  float64
	sat  map[uint64]int // session → satellite before the Step
	hand map[uint64]int // session → hand-off count before the Step
}

func beforeStep(o *Orchestrator) pricingEpoch {
	ep := pricingEpoch{snap: o.ring.Frame(0), now: o.now, sat: map[uint64]int{}, hand: map[uint64]int{}}
	for _, s := range o.tab.Ordered() {
		ep.sat[s.ID], ep.hand[s.ID] = s.Sat, s.Handoffs
	}
	return ep
}

// pricedMove is one hand-off the Step made and how it was priced.
type pricedMove struct {
	sess       *Session
	from, to   int
	got, relay float64
}

// checkEpochPricing re-prices every hand-off of the Step that just ran —
// through the planner's own transferMs over the epoch's still-populated
// rows, and through the full-row oracle — and requires the two to agree
// bit for bit, the relay to sit inside the source's pricing radius, and
// the report's Transfer summary (the values admission itself used, folded
// in session order) to be the oracle's.
func checkEpochPricing(t *testing.T, o *Orchestrator, ep pricingEpoch, rep EpochReport) []pricedMove {
	t.Helper()
	// transferMs reads the epoch's positions and clock; put them back for
	// the re-pricing (a ring at the epoch's time starts on its frame). The
	// rows and radii live until the next Step's reset.
	ring, now := o.ring, o.now
	o.ring, o.now = visibility.NewRing(o.obs, o.eng, ep.now, o.cfg.StepSec, 1), ep.now
	defer func() { o.ring, o.now = ring, now }()

	var moves []pricedMove
	var want stats.Summary
	// In ascending ID order: the order admission prices them in.
	for _, s := range o.tab.Ordered() {
		if s.Handoffs == ep.hand[s.ID] {
			continue
		}
		from, to := ep.sat[s.ID], s.Sat
		oracle, relay := oracleTransferMs(o, ep.snap, o.nsnap, ep.now, from, to, s.Centroid)
		got := o.transferMs(from, to, s.Centroid, &EpochReport{})
		if math.Float64bits(got) != math.Float64bits(oracle) {
			t.Fatalf("t=%v session %d move %d→%d: transferMs %v, full-row oracle %v", ep.now, s.ID, from, to, got, oracle)
		}
		if radius := o.pl.src[from].radiusMs; !(relay <= radius) {
			t.Fatalf("t=%v session %d move %d→%d: relay %v ms exceeds the source's pricing radius %v ms", ep.now, s.ID, from, to, relay, radius)
		}
		want.Add(oracle)
		moves = append(moves, pricedMove{s, from, to, got, relay})
	}
	if len(moves) != rep.Handoffs {
		t.Fatalf("t=%v: found %d moved sessions, report says %d hand-offs", ep.now, len(moves), rep.Handoffs)
	}
	if rep.Transfer != want {
		t.Fatalf("t=%v: report Transfer %+v, oracle %+v", ep.now, rep.Transfer, want)
	}
	return moves
}

// TestTransferPricingMatchesFullRowOracle runs the planner through a chaos
// scenario that reaches every way a move gets priced — evacuations off
// failed satellites, transfer failures that park a session on a satellite
// until after it has set, flapped ISLs, and satellites full enough that
// sessions hold — and checks every price against the full-row oracle.
func TestTransferPricingMatchesFullRowOracle(t *testing.T) {
	c := toyConst(t)
	inj, err := faults.New(c.Size(), faults.Config{
		Seed: 11, SatMTBFHours: 4, SatMTTRSec: 600, ISLFlapPerHour: 6, MigrationFailProb: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Faults = inj
	cfg.Server = compute.ServerSpec{Cores: 2, MemoryGB: 64, PowerCapFraction: 1}
	o, err := New(c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SubmitBatch(testGroups(t, 400)); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}

	var priced, isl, offSet, evac, migFail, flapped, rejected int
	for epoch := 0; epoch < 40; epoch++ {
		ep := beforeStep(o)
		rep, err := o.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, mv := range checkEpochPricing(t, o, ep, rep) {
			priced++
			if mv.got < mv.relay {
				isl++
			}
			if !visibleAll(o, mv.sess, mv.from, ep.snap) {
				offSet++
			}
		}
		evac += rep.Evacuations
		migFail += rep.MigrationFailures
		flapped += rep.ISLDegradations
		rejected += rep.Rejections
	}
	t.Logf("%d priced moves: %d over ISLs, %d off satellites already set, %d evacuations, %d transfer failures, %d flapped, %d rejections",
		priced, isl, offSet, evac, migFail, flapped, rejected)
	for name, n := range map[string]int{
		"priced moves": priced, "ISL-priced moves": isl, "moves off a satellite already set": offSet,
		"evacuations": evac, "transfer failures": migFail, "flapped transfers": flapped, "rejections (full satellites)": rejected,
	} {
		if n == 0 {
			t.Errorf("scenario reached no %s — retune it", name)
		}
	}
}

// TestTransferPricingCornerMoves pins the two moves whose relay leg is
// longest or whose ISL leg does not exist: off a held satellite that is
// below the session's horizon (the radius must stretch to the far side of
// the shell), and between shells (the +grid does not link them).
func TestTransferPricingCornerMoves(t *testing.T) {
	c := starlink(t)
	users := []geo.LatLon{{LatDeg: 51.5, LonDeg: -0.1}, {LatDeg: 48.9, LonDeg: 2.3}}
	fresh := func() (*Orchestrator, *Session) {
		o, err := New(c, nil, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(1, users)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Submit(s); err != nil {
			t.Fatal(err)
		}
		if err := o.Start(0); err != nil {
			t.Fatal(err)
		}
		return o, s
	}
	// Where the planner puts the session when it holds nothing.
	o, s := fresh()
	if _, err := o.Step(); err != nil {
		t.Fatal(err)
	}
	target := s.Sat
	if target < 0 {
		t.Fatal("session not placed")
	}
	shell := c.Satellites[target].ShellIndex

	// farthest returns the satellite farthest from the session at t=0 whose
	// shell is (sameShell) or is not the target's.
	farthest := func(o *Orchestrator, s *Session, sameShell bool) int {
		best, bestD := -1, 0.0
		for id, pos := range o.ring.Frame(0) {
			if (c.Satellites[id].ShellIndex == shell) != sameShell {
				continue
			}
			if d := pos.Distance(s.Centroid); d > bestD {
				best, bestD = id, d
			}
		}
		return best
	}
	for _, tc := range []struct {
		name      string
		sameShell bool
	}{
		{"held satellite below the horizon", true},
		{"cross-shell move", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, s := fresh()
			from := farthest(o, s, tc.sameShell)
			o.debit(from, s)
			s.Sat = from
			o.nAssigned++
			if o.ring.VisibleAll(s.Users, from, 0) {
				t.Fatalf("satellite %d is above the horizon", from)
			}
			ep := beforeStep(o)
			rep, err := o.Step()
			if err != nil {
				t.Fatal(err)
			}
			moves := checkEpochPricing(t, o, ep, rep)
			if len(moves) != 1 || moves[0].from != from || moves[0].to != target {
				t.Fatalf("moves %+v, want one move %d→%d", moves, from, target)
			}
			mv := moves[0]
			rows, settled := o.m.ssspLazy.Value(), len(o.pl.rows)
			t.Logf("move %d→%d: price %v ms, relay %v ms, radius %v ms, %d row(s) settled %d nodes",
				mv.from, mv.to, mv.got, mv.relay, o.pl.src[from].radiusMs, rows, settled)
			if tc.sameShell {
				// A relay leg that crosses the planet stretches the radius far
				// past the usual dozen satellites.
				if rows != 1 || settled <= 64 {
					t.Fatalf("%d row(s) settled %d nodes, want one row far wider than a local one", rows, settled)
				}
			} else if mv.got != mv.relay || rows != 0 {
				t.Fatalf("cross-shell price %v ms (relay %v ms) with %d rows computed, want the relay and no row", mv.got, mv.relay, rows)
			}
		})
	}
}

// TestTransferPricingStaysLocal is the count gate on bounded pricing rows:
// a row settles the handful of satellites inside its pricing radius, not
// its source's whole shell (375–1,600 nodes on Starlink).
func TestTransferPricingStaysLocal(t *testing.T) {
	o, err := New(starlink(t), nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SubmitBatch(benchWorkload(t, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	var settled uint64 // an epoch's rows lie back to back in pl.rows until the next Step
	for epoch := 0; epoch < 10; epoch++ {
		if _, err := o.Step(); err != nil {
			t.Fatal(err)
		}
		settled += uint64(len(o.pl.rows))
	}
	rows := o.m.ssspLazy.Value()
	if rows == 0 {
		t.Fatal("no transfer-pricing rows in 10 epochs")
	}
	t.Logf("%d rows settled %d nodes: %.1f per row", rows, settled, float64(settled)/float64(rows))
	if settled > 64*rows {
		t.Fatalf("pricing rows settle %.1f nodes each, want at most 64", float64(settled)/float64(rows))
	}
}

// TestUnmovedSourceIsNotPriced pins lazy pricing: two sessions share a
// source satellite they must leave, nothing else has room for them, and none
// migrates — they are rejected off a satellite already below the horizon,
// or held on one that is setting. No pricing row may be computed for that
// source, however many movers it had.
func TestUnmovedSourceIsNotPriced(t *testing.T) {
	c := starlink(t)
	users := []geo.LatLon{{LatDeg: 51.5, LonDeg: -0.1}, {LatDeg: 48.9, LonDeg: 2.3}}
	for _, tc := range []struct {
		name    string
		visible bool // whether the source is in view this epoch: held, else rejected
	}{
		{"rejected", false},
		{"held", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := New(c, nil, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			var ss []*Session
			for id := uint64(1); id <= 2; id++ {
				s, err := NewSession(id, users)
				if err != nil {
					t.Fatal(err)
				}
				s.MemoryGB = 1e6 // fits on no satellite
				if err := o.Submit(s); err != nil {
					t.Fatal(err)
				}
				ss = append(ss, s)
			}
			if err := o.Start(0); err != nil {
				t.Fatal(err)
			}
			from := -1
			for id := range c.Satellites {
				if o.ring.VisibleAll(ss[0].Users, id, 0) == tc.visible && !o.ring.VisibleAll(ss[0].Users, id, 1) {
					from = id
					break
				}
			}
			if from < 0 {
				t.Fatal("no satellite leaves the group's view at the next epoch")
			}
			for _, s := range ss {
				o.debit(from, s)
				s.Sat = from
				o.nAssigned++
			}
			rep, err := o.Step()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Handoffs != 0 {
				t.Fatalf("%d hand-offs, want none", rep.Handoffs)
			}
			for _, s := range ss {
				if held := s.Sat == from; held != tc.visible {
					t.Fatalf("session %d on satellite %d after the epoch (source %d)", s.ID, s.Sat, from)
				}
			}
			if o.pl.src[from].radiusMs == 0 {
				t.Fatalf("source %d has no pricing radius: its sessions were not movers", from)
			}
			if rows := o.m.ssspLazy.Value(); rows != 0 {
				t.Fatalf("%d pricing row(s) computed for a source none of whose movers migrated", rows)
			}
		})
	}
}
