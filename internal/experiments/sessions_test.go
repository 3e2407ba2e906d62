package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/meetup"
	"repro/internal/obs"
)

// testPlanners returns three seeded Fig 6/7 groups plus, at index 1, a group
// no single satellite can ever see (users a quarter of the globe apart).
func testPlanners(t *testing.T) (*constellation.Constellation, []*meetup.Planner) {
	t.Helper()
	c, grid, planners, err := groupPlanners(Fig67Config{Groups: 3}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	gap, err := meetup.NewPlanner(c, grid, []geo.LatLon{{LatDeg: 0, LonDeg: 0}, {LatDeg: 0, LonDeg: 90}}, meetup.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c, []*meetup.Planner{planners[0], gap, planners[1], planners[2]}
}

func sweepEngine(c *constellation.Constellation, cfg ephem.Config) *ephem.Engine {
	cfg.Registry = obs.NewRegistry()
	return ephem.New(c, cfg)
}

// TestFig67TimeMajorMatchesSimulate: every session the time-major driver
// produces equals a stand-alone Planner.Simulate of that group and policy,
// field for field, for any worker count — including a group skipped for a
// coverage gap at t=0 and a duration that is a multiple of neither the
// window nor the step.
func TestFig67TimeMajorMatchesSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	const durationSec, stepSec = 601, 2 // 300 steps: nine 32-step windows + 12
	c, planners := testPlanners(t)

	// Oracle: fresh planners on a private engine, one Simulate per session.
	_, oracle := testPlanners(t)
	prov := meetup.NewProviderFor(sweepEngine(c, ephem.Config{}))
	want := make([][]meetup.SessionResult, len(oracle))
	handoffs := 0
	for i, p := range oracle {
		for _, policy := range bothPolicies {
			r, err := p.Simulate(prov, policy, 0, durationSec, stepSec)
			if err != nil {
				want[i] = nil
				break
			}
			want[i] = append(want[i], r)
			handoffs += len(r.Handoffs)
		}
	}
	if want[1] != nil || want[0] == nil || handoffs == 0 {
		t.Fatalf("oracle: gap group simulated=%v, group 0 simulated=%v, %d hand-offs", want[1] != nil, want[0] != nil, handoffs)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := simulateSessions(sweepEngine(c, ephem.Config{}), planners, bothPolicies, durationSec, stepSec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d: driver sessions differ from Simulate:\n got %+v\nwant %+v", procs, got, want)
		}
	}
}

// TestSessionDriverPropagatesEachStepOnce pins the frame sharing the driver
// exists for: however many groups and policies ride along, a step instant is
// propagated once.
func TestSessionDriverPropagatesEachStepOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	const durationSec, stepSec, instants = 600, 2, 301
	c, planners := testPlanners(t)

	// MinMax alone asks for step frames only, so even an LRU no larger than
	// the window misses exactly once per instant.
	eng := sweepEngine(c, ephem.Config{CacheFrames: sessionWindow, GridFrames: -1})
	if _, err := simulateSessions(eng, planners, bothPolicies[:1], durationSec, stepSec); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Misses != instants {
		t.Fatalf("MinMax sweep: %d frame misses for %d step instants", st.Misses, instants)
	}

	// With Sticky on a sweep-sized engine the extra misses are successor
	// frames; no instant, step or successor, is ever propagated twice. (One
	// worker: two groups missing the same successor instant at the same
	// moment would both propagate it.)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := obs.NewTracer(nil)
	eng = sweepEngine(c, ephem.Config{CacheFrames: sweepCacheFrames, GridFrames: sweepGridFrames, Tracer: tr})
	if _, err := simulateSessions(eng, planners, bothPolicies, durationSec, stepSec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sp := range tr.Records() {
		if sp.Name != "ephem.propagate" {
			continue
		}
		if at := sp.Attrs["t_sec"]; seen[at] {
			t.Fatalf("instant t=%s propagated twice", at)
		} else {
			seen[at] = true
		}
	}
	if st := eng.Stats(); int(st.Misses) != len(seen) || len(seen) < instants {
		t.Fatalf("%d misses, %d distinct propagated instants, %d step instants", st.Misses, len(seen), instants)
	}
}

// TestSessionDriverCountsPlannersOnce: the sweep-progress counter moves once
// per planner, not once per window.
func TestSessionDriverCountsPlannersOnce(t *testing.T) {
	c, planners := testPlanners(t)
	before := Progress()
	if _, err := simulateSessions(sweepEngine(c, ephem.Config{}), planners, bothPolicies[:1], 200, 2); err != nil {
		t.Fatal(err)
	}
	if got := Progress() - before; got != uint64(len(planners)) {
		t.Fatalf("progress moved by %d over %d planners and 4 windows", got, len(planners))
	}
}
