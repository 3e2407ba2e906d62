package experiments

import (
	"errors"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/meetup"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/units"
)

// sessionWindow is how many step frames simulateSessions fetches at once:
// long enough to amortise the per-window fan-out barrier, short enough
// (~3.4 MiB at Starlink scale) to stay a small share of a run's memory. The
// frames come from one ephem.Sweep per call, advanced to each window's first
// instant: a window's step frames, and every successor frame Sticky fetches
// at or after it, stay valid until the next window begins, when the buffers
// below its first instant are recycled. No session holds a frame past a Step.
const sessionWindow = 32

// bothPolicies is the pair every MinMax-vs-Sticky study simulates.
var bothPolicies = []meetup.Policy{meetup.MinMax, meetup.Sticky}

// simulateSessions runs one session per policy for every planner, from t=0
// for durationSec at stepSec, time-major: each step frame is fetched once and
// every live session of every planner advances through it, so the frame is
// shared by construction rather than by hoping a cache still holds it when
// the next session's sweep comes round. Step and successor frames come from
// a forward-only ephem.Sweep over eng, whose buffers are reused from window
// to window. Results are those of a stand-alone Planner.Simulate per
// (planner, policy), bit for bit.
//
// out[i][k] is planner i's session under policies[k]. out[i] is nil where
// the group sits in a coverage gap at t=0 — skipped, as the paper's groups
// implicitly sit in covered regions. Planners fan out one per worker (a
// planner's sessions share its scratch); the iteration counter moves once
// per planner.
func simulateSessions(eng *ephem.Engine, planners []*meetup.Planner, policies []meetup.Policy, durationSec, stepSec float64) ([][]meetup.SessionResult, error) {
	return sweepSessions(eng.Sweep(), planners, policies, durationSec, stepSec)
}

// sweepSessions is simulateSessions over the store sw.
func sweepSessions(sw *ephem.Sweep, planners []*meetup.Planner, policies []meetup.Policy, durationSec, stepSec float64) ([][]meetup.SessionResult, error) {
	if !units.Finite(durationSec, stepSec) {
		return nil, errors.New("experiments: session duration and step must be finite")
	}
	sessions := make([][]*meetup.Session, len(planners))
	frame0 := sw.SnapshotAt(0)
	err := parallelFor(len(planners), func(i int) error {
		ss := make([]*meetup.Session, len(policies))
		for k, policy := range policies {
			s, err := planners[i].Begin(sw, policy, 0, frame0)
			if errors.Is(err, meetup.ErrNoCandidate) {
				return nil
			}
			if err != nil {
				return err
			}
			ss[k] = s
		}
		sessions[i] = ss
		return nil
	})
	if err != nil {
		return nil, err
	}
	var live [][]*meetup.Session
	for _, ss := range sessions {
		if ss != nil {
			live = append(live, ss)
		}
	}

	times := make([]float64, 0, sessionWindow)
	frames := make([][]geo.Vec3, 0, sessionWindow)
	// t accumulates exactly as Simulate's loop does, so both see the same
	// instants to the bit. With no session live there is nothing to step.
	for t := stepSec; t <= durationSec && len(live) > 0; {
		sw.Advance(t)
		times, frames = times[:0], frames[:0]
		for ; t <= durationSec && len(times) < sessionWindow; t += stepSec {
			times = append(times, t)
			frames = append(frames, sw.SnapshotAt(t))
		}
		err := par.Each(len(live), par.Workers(), func(i int) error {
			for k, t := range times {
				for _, s := range live[i] {
					s.Step(t, frames[k])
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	out := make([][]meetup.SessionResult, len(planners))
	for i, ss := range sessions {
		for _, s := range ss {
			out[i] = append(out[i], s.Finish(durationSec))
		}
	}
	return out, nil
}

// groupUsersMin and groupUsersMax bound the hand-off studies' group size.
const groupUsersMin, groupUsersMax = 3, 5

// groupPlanners builds the hand-off studies' shared inputs: Starlink, its
// +grid, and one planner per seeded user group.
func groupPlanners(cfg Fig67Config) (*constellation.Constellation, *isl.Grid, []*meetup.Planner, error) {
	c, err := pooledPreset("starlink")
	if err != nil {
		return nil, nil, nil, err
	}
	grid := isl.NewPlusGrid(c)
	groups, err := trace.Groups(trace.GroupConfig{
		Seed:         cfg.Seed,
		Groups:       cfg.Groups,
		MinUsers:     groupUsersMin,
		MaxUsers:     groupUsersMax,
		SpreadKm:     cfg.SpreadKm,
		MaxAbsLatDeg: 52,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	planners := make([]*meetup.Planner, len(groups))
	for i, g := range groups {
		if planners[i], err = meetup.NewPlanner(c, grid, g.Users, cfg.Meetup); err != nil {
			return nil, nil, nil, err
		}
	}
	return c, grid, planners, nil
}
