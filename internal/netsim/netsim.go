// Package netsim is a small discrete-event simulation kernel: an event
// queue with deterministic (time, schedule order) ordering. No production
// code runs on it any more; it survives as the reference the serve
// engine's differential tests replay on (internal/serve/legacy_test.go).
package netsim

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is a scheduled callback.
type Event struct {
	time   float64
	seq    uint64 // tie-break: schedule order, keeping runs deterministic
	fn     func()
	idx    int
	dead   bool
	pooled bool // recycled onto the free list after firing (Schedule path)
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	e.idx = -1
	return e
}

// Sim is the simulation kernel. The zero value is not usable; call New.
type Sim struct {
	now    float64
	seq    uint64
	events eventHeap
	free   []*Event // recycled pooled events (Schedule path)
	ran    int
}

// New creates a simulator starting at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// EventsRun returns how many events have fired.
func (s *Sim) EventsRun() int { return s.ran }

// At schedules fn at an absolute time (>= Now). It returns the event, which
// can be cancelled.
func (s *Sim) At(t float64, fn func()) (*Event, error) {
	if t < s.now {
		return nil, fmt.Errorf("netsim: cannot schedule at %v before now %v", t, s.now)
	}
	if fn == nil {
		return nil, fmt.Errorf("netsim: nil event function")
	}
	e := &Event{time: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return e, nil
}

// After schedules fn delay seconds from now.
func (s *Sim) After(delay float64, fn func()) (*Event, error) {
	if delay < 0 {
		return nil, fmt.Errorf("netsim: negative delay %v", delay)
	}
	return s.At(s.now+delay, fn)
}

// Schedule schedules fn at an absolute time like At but returns no handle:
// the event record comes from an internal free list and is recycled after it
// fires, so it cannot be cancelled. High-volume callers that never cancel
// (request chains, refresh ticks) use this path to stop churning the heap
// allocator with one Event per scheduled callback.
func (s *Sim) Schedule(t float64, fn func()) error {
	if t < s.now {
		return fmt.Errorf("netsim: cannot schedule at %v before now %v", t, s.now)
	}
	if fn == nil {
		return fmt.Errorf("netsim: nil event function")
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
		*e = Event{time: t, seq: s.seq, fn: fn, pooled: true}
	} else {
		e = &Event{time: t, seq: s.seq, fn: fn, pooled: true}
	}
	s.seq++
	heap.Push(&s.events, e)
	return nil
}

// ScheduleAfter schedules fn delay seconds from now on the pooled path.
func (s *Sim) ScheduleAfter(delay float64, fn func()) error {
	if delay < 0 {
		return fmt.Errorf("netsim: negative delay %v", delay)
	}
	return s.Schedule(s.now+delay, fn)
}

// Cancel removes a pending event; cancelling an already-fired or already-
// cancelled event is a no-op.
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.dead || e.idx < 0 {
		if e != nil {
			e.dead = true
		}
		return
	}
	e.dead = true
	heap.Remove(&s.events, e.idx)
}

// Run executes events until the queue empties or the horizon is passed.
// Events scheduled during execution run too. Returns the final time.
func (s *Sim) Run(horizon float64) float64 {
	for len(s.events) > 0 {
		next := s.events[0]
		if next.time > horizon {
			break
		}
		heap.Pop(&s.events)
		if next.dead {
			continue
		}
		s.now = next.time
		s.ran++
		next.fn()
		if next.pooled {
			// Recycle only after fn returns: fn may schedule more events, and
			// those must not reuse this record while it is still live.
			next.fn = nil
			s.free = append(s.free, next)
		}
	}
	if s.now < horizon && !math.IsInf(horizon, 1) {
		s.now = horizon
	}
	return s.now
}

// RunAll executes until no events remain.
func (s *Sim) RunAll() float64 { return s.Run(math.Inf(1)) }

// Pending returns the number of queued (uncancelled) events.
func (s *Sim) Pending() int {
	n := 0
	for _, e := range s.events {
		if !e.dead {
			n++
		}
	}
	return n
}
