// Package meetup implements the paper's §5 meetup-server selection: the
// MinMax baseline (latency-optimal satellite at each instant) and the Sticky
// heuristic (prioritise stationarity by planning ahead over the predictable
// satellite motion). It also computes routed meetup placements for user
// groups too spread out to share one satellite's footprint (the §3.2 Kuiper
// example).
package meetup

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/netgraph"
	"repro/internal/units"
	"repro/internal/visibility"
)

// Policy selects how the meetup server is (re)chosen over time.
type Policy int

const (
	// MinMax re-picks the satellite minimising the group's maximum RTT at
	// every instant — the paper's baseline.
	MinMax Policy = iota
	// Sticky holds a carefully chosen satellite as long as possible: pick
	// from the near-optimal latency band the candidates that stay visible
	// longest, tie-broken by cheapest hand-off to their successor.
	Sticky
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case MinMax:
		return "minmax"
	case Sticky:
		return "sticky"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config holds the Sticky knobs, with the paper's defaults.
type Config struct {
	// LatencyBand is the fractional latency slack over the MinMax optimum a
	// candidate may have (paper: 10%).
	LatencyBand float64
	// PoolSize is how many longest-visible candidates survive to the
	// tie-break (paper: 5).
	PoolSize int
	// LookaheadStepSec is the time resolution of the visibility lookahead.
	LookaheadStepSec float64
	// LookaheadHorizonSec caps the lookahead; candidates still visible at
	// the horizon are treated as equally long-lived.
	LookaheadHorizonSec float64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		LatencyBand:         0.10,
		PoolSize:            5,
		LookaheadStepSec:    5,
		LookaheadHorizonSec: 1200,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LatencyBand <= 0 {
		c.LatencyBand = d.LatencyBand
	}
	if c.PoolSize <= 0 {
		c.PoolSize = d.PoolSize
	}
	if c.LookaheadStepSec <= 0 {
		c.LookaheadStepSec = d.LookaheadStepSec
	}
	if c.LookaheadHorizonSec <= 0 {
		c.LookaheadHorizonSec = d.LookaheadHorizonSec
	}
	return c
}

// Candidate is a satellite eligible to host the group's meetup server.
type Candidate struct {
	// SatID identifies the satellite.
	SatID int
	// GroupRTTMs is the maximum round-trip time over the group's users,
	// each talking directly to the satellite.
	GroupRTTMs float64
}

// Provider supplies constellation snapshots by time. It lets many planners
// share one propagation pass per time step.
type Provider struct {
	eng *ephem.Engine
}

// NewProvider wraps a constellation in a caching snapshot provider backed
// by a private ephemeris engine.
func NewProvider(c *constellation.Constellation) *Provider {
	return NewProviderFor(ephem.New(c, ephem.Config{}))
}

// NewProviderFor wraps a shared ephemeris engine. Planners on the same
// engine — across sessions, policies, and goroutines — reuse each other's
// propagated frames.
func NewProviderFor(eng *ephem.Engine) *Provider { return &Provider{eng: eng} }

// At returns the ECEF snapshot at tSec. The returned slice is shared and
// immutable: callers may retain it but must not modify it.
func (p *Provider) At(tSec float64) []geo.Vec3 { return p.eng.SnapshotAt(tSec) }

// Ephemeris returns the backing engine.
func (p *Provider) Ephemeris() *ephem.Engine { return p.eng }

// Constellation returns the underlying constellation.
func (p *Provider) Constellation() *constellation.Constellation { return p.eng.Constellation() }

// Planner evaluates meetup-server choices for one user group against one
// constellation. Eligibility means direct visibility from every user — the
// regime of the paper's Fig 6/7 regional groups.
//
// A Planner, and every Session begun on it, is used by one goroutine at a
// time: SelectSticky works in planner-owned scratch.
type Planner struct {
	c    *constellation.Constellation
	obs  *visibility.Observer
	grid *isl.Grid
	cfg  Config

	users    []geo.Vec3
	centroid geo.Vec3
	// prefilterChord2[id]: a satellite farther (squared chord) than this
	// from the group centroid cannot be visible to all users; used to prune
	// the per-step candidate scan.
	prefilterChord2 []float64

	// SelectSticky scratch, reused across calls.
	elig  []Candidate
	band  []bandMember
	alive []int // indices into band still visible in the look-ahead
}

// bandMember is a latency-band candidate and the time its full-group
// visibility ends (censored at the look-ahead horizon).
type bandMember struct {
	Candidate
	end float64
}

// NewPlanner builds a planner for the group. The grid may be shared across
// planners of the same constellation.
func NewPlanner(c *constellation.Constellation, grid *isl.Grid, users []geo.LatLon, cfg Config) (*Planner, error) {
	if len(users) == 0 {
		return nil, fmt.Errorf("meetup: empty user group")
	}
	p := &Planner{
		c:    c,
		obs:  visibility.NewObserver(c),
		grid: grid,
		cfg:  cfg.withDefaults(),
	}
	for _, u := range users {
		if !u.Valid() {
			return nil, fmt.Errorf("meetup: invalid user location %v", u)
		}
		p.users = append(p.users, u.ECEF())
	}
	p.centroid = geo.Centroid(users).ECEF()
	maxSpread := 0.0
	for _, u := range p.users {
		if d := u.Distance(p.centroid); d > maxSpread {
			maxSpread = d
		}
	}
	p.prefilterChord2 = make([]float64, c.Size())
	for id := range c.Satellites {
		sh := c.Shells[c.Satellites[id].ShellIndex]
		d := visibility.MaxSlantRangeKm(sh.AltitudeKm, sh.MinElevationDeg) + maxSpread
		p.prefilterChord2[id] = d * d
	}
	return p, nil
}

// Users returns the group size.
func (p *Planner) Users() int { return len(p.users) }

// groupRTT returns the max RTT over users to satellite id at position pos,
// and whether the satellite is visible to every user.
func (p *Planner) groupRTT(pos geo.Vec3, id int) (float64, bool) {
	worst := 0.0
	for _, u := range p.users {
		rel := pos.Sub(u)
		d2 := rel.Dot(rel)
		if !p.obs.Visible(u, id, pos) {
			return 0, false
		}
		if rtt := units.RTTMs(math.Sqrt(d2)); rtt > worst {
			worst = rtt
		}
	}
	return worst, true
}

// Eligible appends all candidates at the snapshot to dst and returns it.
func (p *Planner) Eligible(snap []geo.Vec3, dst []Candidate) []Candidate {
	for id, pos := range snap {
		rel := pos.Sub(p.centroid)
		if rel.Dot(rel) > p.prefilterChord2[id] {
			continue
		}
		if rtt, ok := p.groupRTT(pos, id); ok {
			dst = append(dst, Candidate{SatID: id, GroupRTTMs: rtt})
		}
	}
	return dst
}

// ErrNoCandidate is returned when no satellite is visible to all users.
var ErrNoCandidate = fmt.Errorf("meetup: no satellite visible to the whole group")

// SelectMinMax returns the candidate minimising the group's max RTT.
func (p *Planner) SelectMinMax(snap []geo.Vec3) (Candidate, error) {
	best := Candidate{SatID: -1, GroupRTTMs: math.Inf(1)}
	for id, pos := range snap {
		rel := pos.Sub(p.centroid)
		if rel.Dot(rel) > p.prefilterChord2[id] {
			continue
		}
		if rtt, ok := p.groupRTT(pos, id); ok && rtt < best.GroupRTTMs {
			best = Candidate{SatID: id, GroupRTTMs: rtt}
		}
	}
	if best.SatID < 0 {
		return Candidate{}, ErrNoCandidate
	}
	return best, nil
}

// SelectSticky runs the paper's three-step heuristic at time t0:
//
//  1. candidates within LatencyBand of the MinMax optimum,
//  2. the PoolSize candidates with the longest time until hand-off,
//  3. among those, the one whose eventual hand-off to its successor is
//     cheapest (lowest state-transfer latency).
func (p *Planner) SelectSticky(prov *Provider, t0 float64) (Candidate, error) {
	return p.selectSticky(prov, t0, prov.At(t0))
}

// selectSticky is SelectSticky given the t0 frame.
func (p *Planner) selectSticky(prov *Provider, t0 float64, snap []geo.Vec3) (Candidate, error) {
	p.elig = p.Eligible(snap, p.elig[:0])
	if len(p.elig) == 0 {
		return Candidate{}, ErrNoCandidate
	}
	minRTT := math.Inf(1)
	for _, c := range p.elig {
		if c.GroupRTTMs < minRTT {
			minRTT = c.GroupRTTMs
		}
	}
	band, alive := p.band[:0], p.alive[:0]
	for _, c := range p.elig {
		if c.GroupRTTMs <= minRTT*(1+p.cfg.LatencyBand) {
			alive = append(alive, len(band))
			band = append(band, bandMember{Candidate: c})
		}
	}

	// Lookahead: march forward in time, dropping band members as they lose
	// full-group visibility; record each member's end time. Only the band's
	// own satellites are propagated — no frame is needed to test them.
	horizon := t0 + p.cfg.LookaheadHorizonSec
	for t := t0 + p.cfg.LookaheadStepSec; t <= horizon && len(alive) > 0; t += p.cfg.LookaheadStepSec {
		keep := alive[:0]
		for _, i := range alive {
			id := band[i].SatID
			if _, ok := p.groupRTT(prov.eng.PositionAt(t, id), id); ok {
				keep = append(keep, i)
			} else {
				band[i].end = t
			}
		}
		alive = keep
	}
	for _, i := range alive { // censored at the horizon
		band[i].end = horizon
	}
	p.band, p.alive = band, alive

	// Top PoolSize by time-until-hand-off (then RTT, then ID: a total order,
	// for determinism).
	slices.SortStableFunc(band, func(a, b bandMember) int {
		if a.end != b.end {
			return cmp.Compare(b.end, a.end)
		}
		if a.GroupRTTMs != b.GroupRTTMs {
			return cmp.Compare(a.GroupRTTMs, b.GroupRTTMs)
		}
		return cmp.Compare(a.SatID, b.SatID)
	})
	pool := band
	if len(pool) > p.cfg.PoolSize {
		pool = pool[:p.cfg.PoolSize]
	}

	// Tie-break: cheapest hand-off to the successor at each candidate's end
	// time. Successor = the MinMax choice then (excluding the candidate);
	// that scan and the ISL route need the whole constellation's frame.
	best := pool[0].Candidate
	bestTransfer := math.Inf(1)
	for _, c := range pool {
		fsnap := prov.At(c.end)
		succ, err := p.selectMinMaxExcluding(fsnap, c.SatID)
		if err != nil {
			continue
		}
		tr, err := p.TransferLatencyMs(fsnap, c.SatID, succ.SatID)
		if err != nil {
			continue
		}
		if tr < bestTransfer {
			bestTransfer = tr
			best = c.Candidate
		}
	}
	return best, nil
}

func (p *Planner) selectMinMaxExcluding(snap []geo.Vec3, exclude int) (Candidate, error) {
	best := Candidate{SatID: -1, GroupRTTMs: math.Inf(1)}
	for id, pos := range snap {
		if id == exclude {
			continue
		}
		rel := pos.Sub(p.centroid)
		if rel.Dot(rel) > p.prefilterChord2[id] {
			continue
		}
		if rtt, ok := p.groupRTT(pos, id); ok && rtt < best.GroupRTTMs {
			best = Candidate{SatID: id, GroupRTTMs: rtt}
		}
	}
	if best.SatID < 0 {
		return Candidate{}, ErrNoCandidate
	}
	return best, nil
}

// TransferLatencyMs returns the one-way state-transfer latency from sat a to
// sat b at the snapshot: the cheaper of (1) the shortest ISL path and (2) a
// ground relay through the group's region (down to a ground station at the
// group centroid, back up). The relay covers cross-shell pairs — the +grid
// does not link shells — and the long-way-around +grid cases where an
// ascending and a descending satellite cover the same region from distant
// planes.
func (p *Planner) TransferLatencyMs(snap []geo.Vec3, a, b int) (float64, error) {
	if a < 0 || a >= len(snap) || b < 0 || b >= len(snap) {
		return 0, fmt.Errorf("meetup: transfer satellites out of range (a=%d b=%d sats=%d)", a, b, len(snap))
	}
	if a == b {
		return 0, nil
	}
	relay := units.PropagationDelayMs(snap[a].Distance(p.centroid) + p.centroid.Distance(snap[b]))
	path, err := netgraph.ISLShortest(p.grid, snap, a, b)
	if err != nil {
		// Different shells: the grid has no path; the relay is the route.
		return relay, nil
	}
	return math.Min(path.OneWayMs, relay), nil
}

// TimeToExpiry returns how long satellite satID remains visible to the
// whole group after t0 — the warning time a migration planner has before
// the hand-off must complete. Scans forward at the Sticky lookahead step;
// capped at the lookahead horizon (returned with capped=true).
func (p *Planner) TimeToExpiry(prov *Provider, satID int, t0 float64) (warnSec float64, capped bool) {
	horizon := t0 + p.cfg.LookaheadHorizonSec
	for t := t0 + p.cfg.LookaheadStepSec; t <= horizon; t += p.cfg.LookaheadStepSec {
		if _, ok := p.groupRTT(prov.eng.PositionAt(t, satID), satID); !ok {
			return t - t0, false
		}
	}
	return p.cfg.LookaheadHorizonSec, true
}
