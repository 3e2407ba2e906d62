package ephem

import (
	"math"
	"sync"

	"repro/internal/geo"
)

// Sweep is a forward-only frame store for a driver that walks time strictly
// forward, such as the hand-off study's session driver. Each instant at or
// above the floor is propagated once, through the engine, and every caller
// of that instant shares the one frame; hits and misses count in the
// engine's Stats and metrics, and concurrent misses of one instant share one
// propagation. Unlike the engine's cache tiers, a Sweep reuses memory: once
// Advance moves the floor past a frame's instant, its buffer goes back to a
// free list and a later miss refills it. So a frame from a Sweep is valid
// only until the floor passes its instant; a caller must not hold one past
// that Advance. A request below the floor falls through to Engine.SnapshotAt.
//
// All methods are safe for concurrent use.
type Sweep struct {
	e *Engine

	mu      sync.Mutex
	floor   float64
	frames  map[uint64]*frame // Float64bits(t) → frame at t ≥ floor, filled or in flight
	free    [][]geo.Vec3      // buffers of recycled frames
	buffers int               // buffers ever allocated
}

// Sweep returns an empty forward-only store over e, its floor at -Inf.
func (e *Engine) Sweep() *Sweep {
	return &Sweep{e: e, floor: math.Inf(-1), frames: make(map[uint64]*frame)}
}

// SnapshotAt returns every satellite's ECEF position at t, bit-identical to
// Engine.SnapshotAt(t). The slice is shared and immutable; at or above the
// floor it is valid until Advance moves the floor past t.
func (s *Sweep) SnapshotAt(t float64) []geo.Vec3 {
	s.mu.Lock()
	if !(t >= s.floor) { // below the floor, or NaN
		s.mu.Unlock()
		return s.e.SnapshotAt(t)
	}
	key := math.Float64bits(t)
	if f, ok := s.frames[key]; ok {
		s.mu.Unlock()
		s.e.hit()
		<-f.done
		return f.pos
	}
	var pos []geo.Vec3
	if n := len(s.free); n > 0 {
		pos, s.free = s.free[n-1], s.free[:n-1]
	} else {
		pos = make([]geo.Vec3, s.e.Size())
		s.buffers++
	}
	f := newFrame(t, pos)
	s.frames[key] = f
	s.mu.Unlock()
	s.e.miss()

	s.e.propagate(t, f.pos)
	close(f.done)
	return f.pos
}

// PositionAt returns satellite id's exact position at t; it is
// Engine.PositionAt, which consults no frame.
func (s *Sweep) PositionAt(t float64, id int) geo.Vec3 { return s.e.PositionAt(t, id) }

// Advance raises the floor to floor (a floor at or below the current one is
// ignored) and recycles the buffer of every filled frame below it. A frame
// still propagating is dropped from the store but not recycled, so the
// callers waiting on it read it intact.
func (s *Sweep) Advance(floor float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !(floor > s.floor) {
		return
	}
	s.floor = floor
	for key, f := range s.frames {
		if f.t >= floor {
			continue
		}
		delete(s.frames, key)
		select {
		case <-f.done:
			s.free = append(s.free, f.pos)
		default:
		}
	}
}

// Buffers returns how many frame buffers the store has allocated in its
// life; every other miss refilled a recycled one.
func (s *Sweep) Buffers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffers
}
