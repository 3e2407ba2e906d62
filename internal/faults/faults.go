// Package faults is the deterministic fault-injection layer of the
// simulator: seeded satellite hard failures and recoveries, ISL link
// degradation windows, and migration transfer failures. §4 of the paper
// argues satellite-servers live with radiation-induced faults, no repairs,
// and 5–7 year life-cycles — failure is the steady state — so the fleet
// orchestrator (its hand-off transfers included) and the serve engine
// consume this package to answer "what does a 1% satellite failure rate do to
// hand-off rate and session survival?" reproducibly.
//
// Everything is a pure function of (Config.Seed, inputs): two injectors
// with the same seed produce byte-identical fault timelines regardless of
// wall clock or call interleaving, as long as state-mutating calls
// (Advance) happen in the same order. Per-satellite failure draws use
// independent counter-based streams, so adding satellites or reordering
// queries never perturbs another satellite's timeline. ISL degradation and
// migration failures are stateless hashes and can be queried in any order.
package faults

import (
	"fmt"
	"math"
)

// Kind tags a fault event.
type Kind uint8

// The fault event kinds.
const (
	// SatFail is a satellite hard failure: the payload stops serving and
	// every session on it must be evacuated.
	SatFail Kind = iota + 1
	// SatRecover is a satellite returning to service (redundant payload
	// rebooted); new placements may target it again.
	SatRecover
)

// String names the kind for logs and metric labels.
func (k Kind) String() string {
	switch k {
	case SatFail:
		return "sat_fail"
	case SatRecover:
		return "sat_recover"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one injected fault, in simulated time.
type Event struct {
	// TSec is when the event fires.
	TSec float64
	// Kind is what happened.
	Kind Kind
	// Sat is the affected satellite ID.
	Sat int
}

// Config tunes the injector. The zero value injects nothing.
type Config struct {
	// Seed fixes every draw; the same seed reproduces the same timeline
	// bit-for-bit.
	Seed int64
	// SatMTBFHours is the per-satellite mean time between hard failures
	// (exponential inter-failure times). Zero disables satellite failures.
	// 100 h means each satellite fails with ~1%/hour probability.
	SatMTBFHours float64
	// SatMTTRSec is the mean time to recovery after a hard failure
	// (exponential). Zero picks DefaultMTTRSec; negative means failures are
	// permanent — the paper's no-repairs regime.
	SatMTTRSec float64
	// ISLFlapPerHour is the per-satellite-pair rate of ISL degradation
	// windows. Zero disables link degradation.
	ISLFlapPerHour float64
	// ISLFlapWindowSec quantises link degradation: a flapped pair stays
	// degraded for one whole window (default DefaultFlapWindowSec).
	ISLFlapWindowSec float64
	// MigrationFailProb is the probability one migration transfer attempt
	// fails in flight, in [0, 1). Retries re-draw independently.
	MigrationFailProb float64
}

// DefaultMTTRSec is the default mean recovery time: a half-hour payload
// fail-over to cold redundant hardware.
const DefaultMTTRSec = 1800

// DefaultFlapWindowSec is the default ISL degradation window.
const DefaultFlapWindowSec = 60

func (c Config) withDefaults() (Config, error) {
	if c.SatMTBFHours < 0 {
		return c, fmt.Errorf("faults: MTBF %v h must be non-negative", c.SatMTBFHours)
	}
	if c.SatMTTRSec == 0 {
		c.SatMTTRSec = DefaultMTTRSec
	}
	if c.ISLFlapPerHour < 0 {
		return c, fmt.Errorf("faults: ISL flap rate %v must be non-negative", c.ISLFlapPerHour)
	}
	if c.ISLFlapWindowSec == 0 {
		c.ISLFlapWindowSec = DefaultFlapWindowSec
	}
	if c.ISLFlapWindowSec < 0 {
		return c, fmt.Errorf("faults: flap window %v s must be positive", c.ISLFlapWindowSec)
	}
	if p := c.ISLFlapPerHour * c.ISLFlapWindowSec / 3600; p >= 1 {
		return c, fmt.Errorf("faults: flap rate %v/h saturates the %v s window (p=%.2f)", c.ISLFlapPerHour, c.ISLFlapWindowSec, p)
	}
	if c.MigrationFailProb < 0 || c.MigrationFailProb >= 1 {
		return c, fmt.Errorf("faults: migration failure probability %v outside [0,1)", c.MigrationFailProb)
	}
	return c, nil
}

// Injector holds the fault timeline. Build with New; move simulated time
// forward with Advance. Advance is not safe concurrently with anything;
// the query methods (SatUp, ISLDegraded, MigrationOK, …) are read-only and
// safe concurrently with each other between Advances.
type Injector struct {
	cfg Config
	n   int
	now float64

	up    []bool
	nDown int

	// nextT[i] is satellite i's next pending event time (+Inf when
	// failures are disabled); draws[i] counts that satellite's consumed
	// exponential draws so its stream is independent of every other's.
	nextT []float64
	draws []uint64

	failures, recoveries uint64
}

// New builds an injector over n satellites starting at time 0 with every
// satellite up.
func New(n int, cfg Config) (*Injector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("faults: need at least one satellite, got %d", n)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	in := &Injector{
		cfg:   cfg,
		n:     n,
		up:    make([]bool, n),
		nextT: make([]float64, n),
		draws: make([]uint64, n),
	}
	for i := range in.up {
		in.up[i] = true
		in.nextT[i] = math.Inf(1)
		if cfg.SatMTBFHours > 0 {
			in.nextT[i] = in.expDraw(i, cfg.SatMTBFHours*3600)
		}
	}
	return in, nil
}

// N returns the satellite count the injector covers.
func (in *Injector) N() int { return in.n }

// Now returns the injector's current simulated time.
func (in *Injector) Now() float64 { return in.now }

// Failures and Recoveries return the cumulative event counts fired so far.
func (in *Injector) Failures() uint64   { return in.failures }
func (in *Injector) Recoveries() uint64 { return in.recoveries }

// DownCount returns how many satellites are currently failed.
func (in *Injector) DownCount() int { return in.nDown }

// SatUp reports whether satellite id is serving at the current time.
func (in *Injector) SatUp(id int) bool { return in.up[id] }

// Advance moves the clock to t and returns the events that fired in
// (Now, t], ordered by (time, satellite). Times before Now are a no-op.
func (in *Injector) Advance(t float64) []Event {
	if t <= in.now {
		return nil
	}
	var out []Event
	for {
		// Argmin scan (ascending IDs, so ties break toward the lower
		// satellite): events are rare enough that a heap is not worth it.
		sat, best := -1, math.Inf(1)
		for i, nt := range in.nextT {
			if nt < best {
				sat, best = i, nt
			}
		}
		if sat < 0 || best > t {
			break
		}
		ev := Event{TSec: best, Sat: sat}
		if in.up[sat] {
			ev.Kind = SatFail
			in.up[sat] = false
			in.nDown++
			in.failures++
			if in.cfg.SatMTTRSec < 0 {
				in.nextT[sat] = math.Inf(1) // permanent loss
			} else {
				in.nextT[sat] = best + in.expSec(sat, in.cfg.SatMTTRSec)
			}
		} else {
			ev.Kind = SatRecover
			in.up[sat] = true
			in.nDown--
			in.recoveries++
			in.nextT[sat] = best + in.expSec(sat, in.cfg.SatMTBFHours*3600)
		}
		out = append(out, ev)
	}
	in.now = t
	return out
}

// expDraw returns an absolute first-event time; expSec a relative
// exponential interval, both from satellite sat's private stream.
func (in *Injector) expDraw(sat int, meanSec float64) float64 {
	return in.expSec(sat, meanSec)
}

func (in *Injector) expSec(sat int, meanSec float64) float64 {
	u := in.hash01(streamSat, uint64(sat), in.draws[sat])
	in.draws[sat]++
	return -meanSec * math.Log(1-u)
}

// ISLDegraded reports whether the ISL path between satellites a and b is
// degraded in the flap window containing t. Degradation is quantised to
// whole windows and is a stateless hash of (seed, pair, window), so the
// answer is reproducible in any query order. Callers should treat a
// degraded path as unusable for state transfer (fall back to ground
// relay).
func (in *Injector) ISLDegraded(a, b int, t float64) bool {
	if in.cfg.ISLFlapPerHour == 0 || a == b {
		return false
	}
	if a > b {
		a, b = b, a
	}
	w := uint64(math.Floor(t / in.cfg.ISLFlapWindowSec))
	p := in.cfg.ISLFlapPerHour * in.cfg.ISLFlapWindowSec / 3600
	return in.hash01(streamISL, uint64(a)<<32|uint64(b), w) < p
}

// MigrationOK reports whether one migration transfer attempt succeeds.
// attempt distinguishes retries of the same hand-off so each retry
// re-draws independently; the draw is a stateless hash of
// (seed, session, from, to, attempt).
func (in *Injector) MigrationOK(session uint64, from, to, attempt int) bool {
	if in.cfg.MigrationFailProb == 0 {
		return true
	}
	h := in.hash01(streamMigration, session, uint64(from)<<32|uint64(to), uint64(attempt))
	return h >= in.cfg.MigrationFailProb
}

// Independent draw streams, folded into the hash so satellite failures,
// ISL flaps, and migration coins never correlate.
const (
	streamSat       = 0x5361744661696c73 // "SatFails"
	streamISL       = 0x49534c466c617073 // "ISLFlaps"
	streamMigration = 0x4d69674661696c73 // "MigFails"
)

// mix64 is the SplitMix64 finaliser: a cheap, well-distributed 64-bit
// permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash01 folds the seed, a stream tag, and the given words into a uniform
// float64 in [0, 1).
func (in *Injector) hash01(stream uint64, vals ...uint64) float64 {
	h := mix64(uint64(in.cfg.Seed) ^ stream)
	for _, v := range vals {
		h = mix64(h ^ v)
	}
	return float64(h>>11) / (1 << 53)
}
