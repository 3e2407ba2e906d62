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
}

// The visibility look-ahead (paper: 5 s steps over 20 min). Candidates still
// visible at the horizon are treated as equally long-lived.
const lookaheadStepSec, lookaheadHorizonSec = 5, 1200

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		LatencyBand: 0.10,
		PoolSize:    5,
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

// Planner evaluates meetup-server choices for one user group against one
// constellation. Eligibility means direct visibility from every user — the
// regime of the paper's Fig 6/7 regional groups.
//
// Step-time scans (MinMax, Sticky's band) read only the window near; other
// scans read every satellite. Both walk ascending IDs and pick the same.
//
// A Planner, and every Session begun on it, is used by one goroutine at a
// time: selection works in planner-owned scratch. Neither keeps a frame past
// the call that was given or fetched it, which is what lets a driver feed
// them from a recycling ephem.Sweep.
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
	reach2          []float64 // prefilterChord2 widened by a nearWindowSec move
	all             []int     // every satellite ID, ascending
	near            []int     // IDs within reach2 at nearT, ascending
	nearT           float64

	// selectSticky scratch, reused across calls.
	elig []Candidate
	band []bandMember
}

const nearWindowSec, reachSlackKm = 60, 1 // a window's life; rounding room

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
	cfg = cfg.withDefaults()
	if !units.Finite(cfg.LatencyBand) {
		return nil, fmt.Errorf("meetup: config %+v must be finite", cfg)
	}
	p := &Planner{
		c:     c,
		obs:   visibility.NewObserver(c),
		grid:  grid,
		cfg:   cfg,
		nearT: math.NaN(), // no window yet: the first step-time scan builds one
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
	n := c.Size()
	p.prefilterChord2, p.reach2, p.all = make([]float64, n), make([]float64, n), make([]int, n)
	for id, sat := range c.Satellites {
		sh := c.Shells[sat.ShellIndex]
		d := visibility.MaxSlantRangeKm(sh.AltitudeKm, sh.MinElevationDeg) + maxSpread
		p.prefilterChord2[id] = d * d
		r := d + sat.Prop.MaxECEFSpeedKmS()*nearWindowSec + reachSlackKm
		p.reach2[id] = r * r
		p.all[id] = id
	}
	return p, nil
}

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

// ErrNoCandidate is returned when no satellite is visible to all users.
var ErrNoCandidate = fmt.Errorf("meetup: no satellite visible to the whole group")

// SelectMinMax returns the candidate minimising the group's max RTT.
func (p *Planner) SelectMinMax(snap []geo.Vec3) (Candidate, error) {
	return p.scan(snap, p.all, -1, nil)
}

// scan is every MinMax-style scan: over ids, in ascending order, it returns
// the candidate minimising the group's max RTT (the first on ties), skipping
// satellite exclude, and appends every candidate to *elig when elig is set.
func (p *Planner) scan(snap []geo.Vec3, ids []int, exclude int, elig *[]Candidate) (Candidate, error) {
	best := Candidate{SatID: -1, GroupRTTMs: math.Inf(1)}
	for _, id := range ids {
		pos := snap[id]
		rel := pos.Sub(p.centroid)
		if id == exclude || rel.Dot(rel) > p.prefilterChord2[id] {
			continue
		}
		rtt, ok := p.groupRTT(pos, id)
		if ok && elig != nil {
			*elig = append(*elig, Candidate{SatID: id, GroupRTTMs: rtt})
		}
		if ok && rtt < best.GroupRTTMs {
			best = Candidate{SatID: id, GroupRTTMs: rtt}
		}
	}
	if best.SatID < 0 {
		return Candidate{}, ErrNoCandidate
	}
	return best, nil
}

// window returns near for instant t, whose frame is snap, first rebuilding
// it when t is outside [nearT, nearT+nearWindowSec]: a satellite within the
// prefilter at t was within reach2 at nearT, as it moved ≤ v_max·(t−nearT).
func (p *Planner) window(t float64, snap []geo.Vec3) []int {
	if !(t >= p.nearT && t <= p.nearT+nearWindowSec) {
		p.nearT, p.near = t, p.near[:0]
		for id, pos := range snap {
			if rel := pos.Sub(p.centroid); rel.Dot(rel) <= p.reach2[id] {
				p.near = append(p.near, id)
			}
		}
	}
	return p.near
}

// selectSticky runs the paper's three-step heuristic at time t0, whose
// frame is snap:
//
//  1. candidates within LatencyBand of the MinMax optimum (read from the
//     planner's candidate window),
//  2. the PoolSize candidates with the longest time until hand-off,
//  3. among those, the one whose eventual hand-off to its successor is
//     cheapest (lowest state-transfer latency).
func (p *Planner) selectSticky(eng Ephemeris, t0 float64, snap []geo.Vec3) (Candidate, error) {
	p.elig = p.elig[:0]
	opt, err := p.scan(snap, p.window(t0, snap), -1, &p.elig)
	if err != nil {
		return Candidate{}, err
	}
	// Look-ahead: each band member's end time, censored at the horizon.
	// Only the band's own satellites are propagated — no frame is needed to
	// test them.
	band := p.band[:0]
	for _, c := range p.elig {
		if c.GroupRTTMs <= opt.GroupRTTMs*(1+p.cfg.LatencyBand) {
			end, _ := p.obs.VisibleUntil(eng, p.users, c.SatID, t0, lookaheadStepSec, t0+lookaheadHorizonSec)
			band = append(band, bandMember{Candidate: c, end: end})
		}
	}
	p.band = band

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
		fsnap := eng.SnapshotAt(c.end)
		succ, err := p.scan(fsnap, p.all, c.SatID, nil)
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

// TransferLatencyMs returns the one-way state-transfer latency from sat a to
// sat b at the snapshot: the cheaper of (1) the shortest ISL path and (2) a
// ground relay through the group's region (down to a ground station at the
// group centroid, back up). The relay covers cross-shell pairs — the +grid
// does not link shells — and the long-way-around +grid cases where an
// ascending and a descending satellite cover the same region from distant
// planes. The ISL search stops once the relay is cheaper; it errors only on
// out-of-range IDs.
func (p *Planner) TransferLatencyMs(snap []geo.Vec3, a, b int) (float64, error) {
	if a < 0 || a >= len(snap) || b < 0 || b >= len(snap) {
		return 0, fmt.Errorf("meetup: transfer satellites out of range (a=%d b=%d sats=%d)", a, b, len(snap))
	}
	if a == b {
		return 0, nil
	}
	relay := units.PropagationDelayMs(snap[a].Distance(p.centroid) + p.centroid.Distance(snap[b]))
	ms, _ := netgraph.ISLWithin(p.grid, snap, a, b, relay) // min(ISL, relay) either way
	return ms, nil
}
