// Package migrate models the state migration that makes "virtual
// stationarity" (§5) work: before a meetup server's satellite sets below the
// group's horizon, its application state must move to the successor. The
// package provides the analytic live-migration model used by the simulation
// experiments, and a wire protocol (see protocol.go) used by the real TCP
// demo binaries.
package migrate

import (
	"fmt"
	"math"
)

// State describes an application's migratable state, split the way §5
// suggests: session-specific state (player and game state) that must move on
// the critical path, and generic state (the game world) that can be
// replicated ahead of time.
type State struct {
	// SessionMB is the session-specific state in megabytes.
	SessionMB float64
	// GenericMB is the generic application state in megabytes.
	GenericMB float64
	// DirtyRateMBps is how fast the session state changes while the
	// application keeps running during live migration.
	DirtyRateMBps float64
}

// Validate reports whether the state sizes are usable.
func (s State) Validate() error {
	if s.SessionMB < 0 || s.GenericMB < 0 || s.DirtyRateMBps < 0 {
		return fmt.Errorf("migrate: negative state parameters %+v", s)
	}
	return nil
}

// Link describes the transfer path to the successor.
type Link struct {
	// BandwidthMBps is the usable throughput in megabytes per second.
	BandwidthMBps float64
	// OneWayMs is the propagation latency of the path.
	OneWayMs float64
}

// Validate reports whether the link is usable.
func (l Link) Validate() error {
	if l.BandwidthMBps <= 0 {
		return fmt.Errorf("migrate: bandwidth must be positive, got %v", l.BandwidthMBps)
	}
	if l.OneWayMs < 0 {
		return fmt.Errorf("migrate: negative latency %v", l.OneWayMs)
	}
	return nil
}

// GbpsToMBps converts link rate units.
func GbpsToMBps(gbps float64) float64 { return gbps * 1000 / 8 }

// Result summarises one migration.
type Result struct {
	// TotalSec is the wall-clock duration from migration start to
	// completion.
	TotalSec float64
	// DowntimeSec is how long the application was paused: the final
	// stop-and-copy round.
	DowntimeSec float64
	// Rounds is the number of iterative pre-copy rounds performed.
	Rounds int
	// TransferredMB is the total volume moved, including re-sent dirty
	// state.
	TransferredMB float64
}

// Iterative pre-copy runs at most liveMaxRounds rounds, and stops early once
// the remaining dirty set is at most liveStopMB; then it does the final
// stop-and-copy.
const liveMaxRounds, liveStopMB = 10, 1

// ErrDiverges is returned when the dirty rate matches or exceeds the link
// bandwidth, so iterative pre-copy cannot converge.
var ErrDiverges = fmt.Errorf("migrate: dirty rate >= bandwidth; live migration cannot converge")

// Live computes an iterative pre-copy live migration (pre-copy rounds while
// the application runs, then a brief stop-and-copy of the residual dirty
// set). The generic state is already present on the successor (§5's
// "generic state is replicated even further ahead"), so only session state
// rides the critical path.
func Live(s State, l Link) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{}
	toSend := s.SessionMB
	if toSend == 0 {
		res.DowntimeSec = l.OneWayMs / 1000 // still need the cut-over signal
		res.TotalSec = res.DowntimeSec
		res.Rounds = 1
		return res, nil
	}
	ratio := s.DirtyRateMBps / l.BandwidthMBps
	if ratio >= 1 {
		return Result{}, ErrDiverges
	}

	dirty := toSend
	for round := 0; round < liveMaxRounds; round++ {
		res.Rounds++
		sendSec := dirty / l.BandwidthMBps
		res.TotalSec += sendSec
		res.TransferredMB += dirty
		// While that round was in flight, the app dirtied more state.
		dirty = sendSec * s.DirtyRateMBps
		if dirty <= liveStopMB {
			break
		}
	}
	// Final stop-and-copy of the residual dirty set, plus the cut-over
	// propagation delay.
	stopSec := dirty/l.BandwidthMBps + l.OneWayMs/1000
	res.TotalSec += stopSec + l.OneWayMs/1000 // initial round also rides the link
	res.TransferredMB += dirty
	res.DowntimeSec = stopSec
	return res, nil
}

// GEOComparison quantifies the abstraction the paper highlights: a series of
// LEO meetup servers behaves like a GEO satellite hovering over the group,
// at a fraction of the latency. It returns the LEO:GEO RTT ratio for a
// given LEO RTT (GEO zenith RTT is ~239 ms).
func GEOComparison(leoRTTMs float64) float64 {
	const geoZenithRTTMs = 2 * 35786.0 / 299792.458 * 1000
	if leoRTTMs <= 0 {
		return math.Inf(1)
	}
	return geoZenithRTTMs / leoRTTMs
}
