package meetup

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/stats"
)

// Handoff records one meetup-server migration event during a session.
type Handoff struct {
	// TimeSec is when the hand-off happened (seconds after epoch).
	TimeSec float64
	// From and To are the satellite IDs involved.
	From, To int
	// TransferMs is the one-way state-transfer latency over the ISL grid at
	// hand-off time.
	TransferMs float64
	// HeldSec is how long From had been the meetup server.
	HeldSec float64
}

// SessionResult summarises one simulated session under a policy.
type SessionResult struct {
	// Policy that ran the session.
	Policy Policy
	// StartSec and DurationSec delimit the session.
	StartSec, DurationSec float64
	// Handoffs in time order.
	Handoffs []Handoff
	// RTT aggregates the group max-RTT sampled every step.
	RTT stats.Summary
	// FinalHoldSec is how long the last server had been held at session end
	// (censored — not a hand-off interval).
	FinalHoldSec float64
}

// HandoffIntervals returns the completed times-between-hand-offs (the Fig 6
// samples).
func (r SessionResult) HandoffIntervals() []float64 {
	out := make([]float64, 0, len(r.Handoffs))
	for _, h := range r.Handoffs {
		out = append(out, h.HeldSec)
	}
	return out
}

// TransferLatencies returns the per-hand-off state-transfer latencies (the
// Fig 7 samples).
func (r SessionResult) TransferLatencies() []float64 {
	out := make([]float64, 0, len(r.Handoffs))
	for _, h := range r.Handoffs {
		out = append(out, h.TransferMs)
	}
	return out
}

// Session is one policy's meetup session over a planner, advanced a step at
// a time so a driver can walk many sessions through each frame it fetches
// (Simulate is the single-session loop over the same stepper).
//
// MinMax switches whenever the latency-optimal satellite changes (the
// paper's "picks the latency-optimal satellite at each instant"). Sticky
// re-runs the Sticky selection only when the current server stops being
// visible to the whole group.
type Session struct {
	p         *Planner
	prov      *Provider
	res       SessionResult
	cur       Candidate
	heldSince float64
}

// Begin starts a session at t0 by selecting the first server. snap is the
// frame at t0; prov serves Sticky's look-ahead.
func (p *Planner) Begin(prov *Provider, policy Policy, t0 float64, snap []geo.Vec3) (*Session, error) {
	s := &Session{p: p, prov: prov, res: SessionResult{Policy: policy, StartSec: t0}, heldSince: t0}
	var err error
	switch policy {
	case MinMax:
		s.cur, err = p.SelectMinMax(snap)
	case Sticky:
		s.cur, err = p.selectSticky(prov, t0, snap)
	default:
		return nil, fmt.Errorf("meetup: unknown policy %v", policy)
	}
	if err != nil {
		return nil, fmt.Errorf("meetup: initial selection: %w", err)
	}
	s.res.RTT.Add(s.cur.GroupRTTMs)
	return s, nil
}

// Step advances the session to time t, whose frame is snap. Steps must be
// fed in increasing time order.
func (s *Session) Step(t float64, snap []geo.Vec3) {
	p := s.p
	rtt, visible := p.groupRTT(snap[s.cur.SatID], s.cur.SatID)

	// A failed selection is a coverage gap: no server for the group at all.
	// Keep the current selection pending and retry next step.
	var next Candidate
	needSwitch := false
	switch s.res.Policy {
	case MinMax:
		if mm, err := p.SelectMinMax(snap); err == nil && mm.SatID != s.cur.SatID {
			needSwitch, next = true, mm
		}
	case Sticky:
		if !visible {
			if st, err := p.selectSticky(s.prov, t, snap); err == nil {
				needSwitch, next = true, st
			}
		}
	}
	if !needSwitch {
		if visible {
			s.res.RTT.Add(rtt)
		}
		return
	}
	transfer, terr := p.TransferLatencyMs(snap, s.cur.SatID, next.SatID)
	if terr != nil {
		transfer = 0 // disconnected grid (degenerate topologies only)
	}
	s.res.Handoffs = append(s.res.Handoffs, Handoff{
		TimeSec:    t,
		From:       s.cur.SatID,
		To:         next.SatID,
		TransferMs: transfer,
		HeldSec:    t - s.heldSince,
	})
	s.cur = next
	s.heldSince = t
	s.res.RTT.Add(s.cur.GroupRTTMs)
}

// Finish ends the session durationSec after its start and returns its
// result.
func (s *Session) Finish(durationSec float64) SessionResult {
	s.res.DurationSec = durationSec
	s.res.FinalHoldSec = s.res.StartSec + durationSec - s.heldSince
	return s.res
}

// Simulate runs one session of the given policy: the group holds a meetup
// server, migrating per policy, from t0 for durationSec, evaluated every
// stepSec.
func (p *Planner) Simulate(prov *Provider, policy Policy, t0, durationSec, stepSec float64) (SessionResult, error) {
	if durationSec <= 0 || stepSec <= 0 {
		return SessionResult{}, fmt.Errorf("meetup: bad session bounds duration=%v step=%v", durationSec, stepSec)
	}
	s, err := p.Begin(prov, policy, t0, prov.At(t0))
	if err != nil {
		return SessionResult{}, err
	}
	for t := t0 + stepSec; t <= t0+durationSec; t += stepSec {
		s.Step(t, prov.At(t))
	}
	return s.Finish(durationSec), nil
}
