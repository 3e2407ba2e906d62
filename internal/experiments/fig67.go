package experiments

import (
	"fmt"

	"repro/internal/meetup"
	"repro/internal/plot"
	"repro/internal/stats"
)

// Fig67Config parameterises the hand-off dynamics study.
type Fig67Config struct {
	// Groups is how many seeded user groups to simulate (default 20).
	Groups int
	// UsersMin/UsersMax bound group size (default 3..5).
	UsersMin, UsersMax int
	// SpreadKm is the group geographic spread (default 600 km — regional
	// friend groups, the paper's West Africa regime).
	SpreadKm float64
	// DurationSec is the session length (default 7200 — the paper's 2 h).
	DurationSec float64
	// StepSec is the simulation step (default 2 s).
	StepSec float64
	// Seed fixes the group draw.
	Seed int64
	// Meetup overrides the Sticky knobs (zero = paper defaults).
	Meetup meetup.Config
}

func (c Fig67Config) withDefaults() Fig67Config {
	if c.Groups <= 0 {
		c.Groups = 20
	}
	if c.UsersMin <= 0 {
		c.UsersMin = 3
	}
	if c.UsersMax < c.UsersMin {
		c.UsersMax = c.UsersMin + 2
	}
	if c.SpreadKm <= 0 {
		c.SpreadKm = 600
	}
	if c.DurationSec <= 0 {
		c.DurationSec = 7200
	}
	if c.StepSec <= 0 {
		c.StepSec = 2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Fig67Result aggregates the hand-off statistics across groups.
type Fig67Result struct {
	// Intervals are the Fig 6 CDFs: time between hand-offs per policy.
	IntervalsMinMax, IntervalsSticky *stats.CDF
	// Transfers are the Fig 7 CDFs: state-transfer latency per policy.
	TransfersMinMax, TransfersSticky *stats.CDF
	// HandoffsMinMax and HandoffsSticky count total hand-offs.
	HandoffsMinMax, HandoffsSticky int
	// MeanRTTMinMax/Sticky average the group RTT across sessions.
	MeanRTTMinMax, MeanRTTSticky float64
	// GroupsSimulated counts groups that completed both sessions (groups
	// in coverage gaps are skipped).
	GroupsSimulated int
}

// MedianRatio returns Sticky's median inter-hand-off time over MinMax's —
// the paper's headline "4x longer" number.
func (r Fig67Result) MedianRatio() float64 {
	if r.IntervalsMinMax.N() == 0 || r.IntervalsSticky.N() == 0 {
		return 0
	}
	m := r.IntervalsMinMax.Median()
	if m == 0 {
		return 0
	}
	return r.IntervalsSticky.Median() / m
}

// Fig6Series returns the Fig 6 CDF plot series.
func (r Fig67Result) Fig6Series() (mm, st plot.Series) {
	mm.Name, st.Name = "MinMax", "Sticky"
	mm.X, mm.Y = r.IntervalsMinMax.Points()
	st.X, st.Y = r.IntervalsSticky.Points()
	return mm, st
}

// Fig7Series returns the Fig 7 CDF plot series.
func (r Fig67Result) Fig7Series() (mm, st plot.Series) {
	mm.Name, st.Name = "MinMax", "Sticky"
	mm.X, mm.Y = r.TransfersMinMax.Points()
	st.X, st.Y = r.TransfersSticky.Points()
	return mm, st
}

// Fig67 reproduces Figures 6 and 7: simulate meetup sessions for many user
// groups on Starlink Phase I under both policies, collecting the time
// between hand-offs and the per-hand-off state-transfer latency.
func Fig67(cfg Fig67Config) (Fig67Result, error) {
	cfg = cfg.withDefaults()
	c, _, planners, err := groupPlanners(cfg)
	if err != nil {
		return Fig67Result{}, err
	}
	outs, err := simulateSessions(engineFor(c), planners, bothPolicies, cfg.DurationSec, cfg.StepSec)
	if err != nil {
		return Fig67Result{}, err
	}

	res := Fig67Result{
		IntervalsMinMax: stats.NewCDF(),
		IntervalsSticky: stats.NewCDF(),
		TransfersMinMax: stats.NewCDF(),
		TransfersSticky: stats.NewCDF(),
	}
	sumRTTmm, sumRTTst := 0.0, 0.0
	for _, o := range outs {
		if o == nil {
			continue // coverage gap at session start
		}
		mm, st := o[0], o[1]
		res.GroupsSimulated++
		res.IntervalsMinMax.AddAll(mm.HandoffIntervals())
		res.IntervalsSticky.AddAll(st.HandoffIntervals())
		res.TransfersMinMax.AddAll(mm.TransferLatencies())
		res.TransfersSticky.AddAll(st.TransferLatencies())
		res.HandoffsMinMax += len(mm.Handoffs)
		res.HandoffsSticky += len(st.Handoffs)
		sumRTTmm += mm.RTT.Mean()
		sumRTTst += st.RTT.Mean()
	}
	if res.GroupsSimulated == 0 {
		return Fig67Result{}, fmt.Errorf("experiments: every group hit a coverage gap")
	}
	res.MeanRTTMinMax = sumRTTmm / float64(res.GroupsSimulated)
	res.MeanRTTSticky = sumRTTst / float64(res.GroupsSimulated)
	return res, nil
}
