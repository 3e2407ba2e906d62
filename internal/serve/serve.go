// Package serve is the constellation-wide request-serving layer: the
// discrete-event model of the paper's "compute as a service" claim. Ground
// sites emit requests (diurnal Poisson arrivals, heavy-tailed service
// times); a pluggable routing policy picks a visible satellite for each
// request; per-satellite admission control bounds the queue and sheds the
// rest with typed reasons. The engine simulates in refresh-aligned time
// slices, replaying each on the caller's goroutine while the next slice's
// refresh runs beside it (see shard.go), and stays byte-identical to the
// legacy event-queue reference (legacy_test.go) for every seed. Each refresh reads visibility
// straight off the ephemeris frames through a visibility.Ring, the
// look-ahead type the fleet orchestrator reads too (share its ephemeris
// engine and the frames are the same), and the engine reports into the obs
// registry / flight recorder. It builds no routing graph: netgraph is only
// its test oracle (legacy_test.go).
package serve

import (
	"errors"
	"fmt"

	"repro/internal/compute"
	"repro/internal/ephem"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ShedReason classifies why admission rejected a request.
type ShedReason string

const (
	// ShedNoCoverage: no satellite is above the site's elevation mask.
	ShedNoCoverage ShedReason = "no_coverage"
	// ShedSatDown: satellites are visible but every one is failed.
	ShedSatDown ShedReason = "sat_down"
	// ShedQueueFull: the chosen satellite's bounded queue is at capacity.
	ShedQueueFull ShedReason = "queue_full"
	// ShedRefused: the routing policy declined every candidate.
	ShedRefused ShedReason = "refused"
)

// ShedReasons lists the reasons in report order.
var ShedReasons = []ShedReason{ShedNoCoverage, ShedSatDown, ShedQueueFull, ShedRefused}

// ErrNonMonotonic is returned by Engine.Feed — and by RunUntil for an
// arrival pulled from a Source — when a request's arrival time precedes an
// earlier request or the engine's current simulation time. The engine
// assigns per-slice event order from arrival order, so an out-of-order
// arrival would silently corrupt the (time, seq) contract the determinism
// guarantees rest on; it is rejected instead.
var ErrNonMonotonic = errors.New("non-monotonic request feed")

// Config configures a serving engine for one policy.
type Config struct {
	// Sites are the request-originating ground locations (required).
	Sites []Site
	// Policy routes each request (required).
	Policy Policy
	// Server is the per-satellite hardware (zero value: DefaultServerSpec).
	// EffectiveCores (power-capped) sets the number of request cores.
	Server compute.ServerSpec
	// QueueCap bounds requests admitted per satellite beyond its cores;
	// at capacity further requests are shed (0 = 64, -1 = unbounded).
	QueueCap int
	// RefreshSec is the cadence at which the look-ahead ring advances and
	// candidates and fault state are refreshed (default 60, matching the
	// fleet epoch). It is also the engine's slice width.
	RefreshSec float64
	// Registry, when set, receives the serve_* metric families.
	Registry *obs.Registry
	// Faults, when set, marks failed satellites unroutable at each
	// refresh. The engine owns Advance and calls it during RunUntil on a
	// goroutine of its own, beside the slice's replay: give each engine
	// its own injector (same seed = same schedule), and read it only
	// between RunUntil calls.
	Faults *faults.Injector
	// Ephem, when set, supplies the look-ahead ring's frames from its
	// frame store (share the fleet orchestrator's engine), where the ring
	// reserves its depth; nil propagates each frame fresh.
	Ephem *ephem.Engine
}

func (c Config) withDefaults() Config {
	if c.Server == (compute.ServerSpec{}) {
		c.Server = compute.DefaultServerSpec()
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.RefreshSec <= 0 {
		c.RefreshSec = 60
	}
	return c
}

// Result summarises a finished (or in-progress) run for one policy.
type Result struct {
	// Policy is the routing policy name.
	Policy string
	// Offered counts requests fed whose arrival time has passed.
	Offered int
	// Served counts requests completed end to end.
	Served int
	// InFlight counts requests admitted but not yet completed.
	InFlight int
	// Shed counts admission rejections by reason.
	Shed map[ShedReason]int
	// LatencyMs is the end-to-end latency distribution (uplink + queue +
	// service + downlink) over served requests.
	LatencyMs *stats.CDF
	// Utilization is each satellite's busy-core-seconds divided by
	// elapsed core-seconds (indexed by satellite ID).
	Utilization []float64
	// SatsUsed counts satellites that served at least one request.
	SatsUsed int
	// PeakQueued is the maximum simultaneous queue depth summed over
	// satellites.
	PeakQueued int
}

// ShedTotal sums sheds across reasons.
func (r Result) ShedTotal() int {
	n := 0
	for _, v := range r.Shed {
		n += v
	}
	return n
}

// EngineStats is what is left of the deleted slice fan-out's execution
// report. The engine replays on one goroutine; the type and Engine.Stats
// remain only because bench/workloads.go reads these three fields, and
// they leave with the next benchmark PR.
type EngineStats struct {
	// Workers is always 1.
	Workers int
	// ParallelSlices is always 0.
	ParallelSlices int
	// SerialSlices counts the slices that had arrivals.
	SerialSlices int
}

// validateConfig rejects configurations the engine refuses.
func validateConfig(size int, cfg Config) error {
	if len(cfg.Sites) == 0 {
		return fmt.Errorf("serve: no sites")
	}
	if cfg.Policy == nil {
		return fmt.Errorf("serve: nil policy")
	}
	if err := cfg.Server.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if cfg.QueueCap < -1 {
		return fmt.Errorf("serve: queue cap %d below -1 (unbounded)", cfg.QueueCap)
	}
	if cfg.Faults != nil && cfg.Faults.N() != size {
		return fmt.Errorf("serve: fault injector sized for %d sats, constellation has %d",
			cfg.Faults.N(), size)
	}
	return nil
}
