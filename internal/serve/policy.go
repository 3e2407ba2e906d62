package serve

import (
	"fmt"
	"math"
)

// Candidate is one satellite a request could be routed to: its current
// ground-to-satellite propagation delay plus the load signal the engine
// refreshes before every load-coupled policy decision.
type Candidate struct {
	// SatID is the satellite.
	SatID int
	// OneWayMs is the ground-to-satellite propagation delay.
	OneWayMs float64
	// FreeAtSec is the earliest simulated time a core on the satellite
	// frees up (<= now when a core is idle).
	FreeAtSec float64
	// LifeSec is how long the satellite stays visible from the requesting
	// site, at the engine's refresh granularity (capped at the lookahead
	// horizon). Zero when it sets before the next refresh.
	LifeSec float64
}

// Policy selects which candidate satellite serves a request. Pick returns
// an index into cands, or -1 to refuse (the engine then sheds the request).
// prev is the satellite that served the site's previous request (-1 for
// none); policies that keep affinity use it. cands is never empty and is
// ordered by ascending (OneWayMs, SatID) — least-loaded stops its scan on
// that order; implementations must be deterministic functions of their
// arguments.
type Policy interface {
	Name() string
	Pick(nowSec float64, prev int, cands []Candidate) int
}

// sliceLocalPolicy marks built-in policies whose Pick is a pure function of
// (prev, cands): it reads neither nowSec nor the FreeAtSec load signal,
// and re-picks its own previous choice (Pick(Pick(prev, cands),
// cands) selects the same satellite). Those properties make the pick
// constant per site within a refresh slice, which is what lets the engine
// resolve routing once per (site, slice) and simulate each satellite on
// its own heap. The marker is deliberately unexported: external policies
// cannot claim it, so they always get the order-exact global replay.
type sliceLocalPolicy interface{ sliceLocal() }

// Nearest always routes to the lowest-propagation visible satellite — the
// §3.1 edge-computing baseline: minimal propagation, but one server absorbs
// a whole site's load.
func Nearest() Policy { return nearest{} }

type nearest struct{}

func (nearest) Name() string { return "nearest" }

func (nearest) sliceLocal() {}

func (nearest) Pick(nowSec float64, prev int, cands []Candidate) int {
	idx, best := -1, math.Inf(1)
	for i := range cands {
		if cands[i].OneWayMs < best {
			best = cands[i].OneWayMs
			idx = i
		}
	}
	return idx
}

// LeastLoaded routes to the satellite with the earliest predicted
// completion, counting both the queue ahead and the propagation to reach
// it — spreads a hot site across its footprint at a small propagation cost.
func LeastLoaded() Policy { return leastLoaded{} }

type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

// Pick returns the first candidate with the least ETA (service start plus
// propagation). An ETA never undercuts nowSec + OneWayMs/1000, that floor
// ascends with cands, and only a strictly lower ETA wins, so the scan stops
// at the first floor that reaches the best ETA so far.
func (leastLoaded) Pick(nowSec float64, prev int, cands []Candidate) int {
	idx, best := -1, math.Inf(1)
	for i := range cands {
		d := cands[i].OneWayMs / 1000
		if nowSec+d >= best {
			break
		}
		if eta := math.Max(cands[i].FreeAtSec, nowSec) + d; eta < best {
			best = eta
			idx = i
		}
	}
	return idx
}

// DefaultStickyBand is the fractional latency slack Sticky trades for
// affinity longevity — the paper's hand-off Sticky band.
const DefaultStickyBand = 0.10

// Sticky keeps a site attached to the satellite that served it last for as
// long as it stays visible, and re-attaches by remaining visibility when it
// sets — the request-serving mirror of the fleet planner's Sticky
// re-placement, so request affinity follows the same hand-off cadence.
// band is the fractional latency slack a longer-lived candidate may cost
// over the nearest (<= 0 uses DefaultStickyBand).
func Sticky(band float64) Policy {
	if band <= 0 {
		band = DefaultStickyBand
	}
	return sticky{band: band}
}

type sticky struct{ band float64 }

func (sticky) Name() string { return "sticky" }

func (sticky) sliceLocal() {}

func (s sticky) Pick(nowSec float64, prev int, cands []Candidate) int {
	minMs := math.Inf(1)
	for i := range cands {
		if cands[i].SatID == prev {
			return i // still visible: hold the affinity
		}
		if cands[i].OneWayMs < minMs {
			minMs = cands[i].OneWayMs
		}
	}
	// Hand-off moment: re-attach to the longest-visible candidate inside
	// the latency band (ties: lower latency, then lower ID) so the next
	// hand-off is as far away as the band allows.
	bound := minMs * (1 + s.band)
	idx := -1
	for i := range cands {
		c := cands[i]
		if c.OneWayMs > bound {
			continue
		}
		if idx < 0 {
			idx = i
			continue
		}
		b := cands[idx]
		if c.LifeSec != b.LifeSec {
			if c.LifeSec > b.LifeSec {
				idx = i
			}
			continue
		}
		if c.OneWayMs != b.OneWayMs {
			if c.OneWayMs < b.OneWayMs {
				idx = i
			}
			continue
		}
		if c.SatID < b.SatID {
			idx = i
		}
	}
	return idx
}

// Policies returns the three built-in routing policies in comparison order.
func Policies() []Policy {
	return []Policy{Nearest(), LeastLoaded(), Sticky(0)}
}

// ByName resolves a built-in policy name (as reported by Policy.Name).
func ByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("serve: unknown policy %q (want nearest, least-loaded, sticky)", name)
}
