// Package ephem is the shared ephemeris engine: the one place that answers
// "where is every satellite at time t" for the whole repository. Every
// consumer that used to call Constellation.Snapshot in its own loop — fleet
// epochs, visibility sweeps, meetup sessions, the figure pipelines — goes
// through an Engine instead, which
//
//   - propagates full-constellation snapshots in contiguous chunks across
//     par.Workers() cores (a snapshot is embarrassingly parallel: each
//     satellite's position is an independent closed-form evaluation); and
//   - keeps a time-keyed keyframe cache so consumers querying the same or
//     nearby instants reuse one propagation instead of repeating it. The
//     cache is two-tier: frames on the keyframe grid (multiples of
//     GridStepSec) live in a protected ring that sequential sweeps cannot
//     flush, all other instants share an LRU pool.
//
// Frames returned by Engine.SnapshotAt are immutable and shared: callers must
// not modify them, and may retain them for as long as they like (eviction
// only drops the engine's reference, never reuses the memory). A Sweep, the
// forward-only store for a driver that walks time strictly forward, is the
// exception: it recycles a frame's buffer once its floor passes the frame's
// instant, so its frames live only until then. Every position is
// bit-identical to calling Prop.ECEFAt directly, so engine-backed pipelines
// reproduce pre-engine outputs byte for byte.
package ephem

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/orbit"
	"repro/internal/par"
)

// Config tunes an Engine. The zero value picks the defaults noted on each
// field.
type Config struct {
	// Workers bounds snapshot propagation parallelism (default par.Workers()).
	// Workers == 1 propagates inline with no goroutine hand-off.
	Workers int
	// CacheFrames is the LRU capacity, in frames, for snapshots at
	// off-grid instants (default 64; negative disables the LRU tier).
	// One Starlink-scale frame is ~105 KiB.
	CacheFrames int
	// GridFrames is the capacity, in frames, of the protected keyframe
	// ring holding snapshots at multiples of GridStepSec (default 64;
	// negative disables the tier). Grid frames are evicted FIFO and only
	// by other grid frames, so a long off-grid sweep cannot flush the
	// keyframes that lookahead queries keep returning to.
	GridFrames int
	// GridStepSec is the keyframe grid spacing in seconds (default 60,
	// the meetup/fleet lookahead sampling step).
	GridStepSec float64
	// Registry receives the ephem_* metric families (default obs.Default()).
	Registry *obs.Registry
	// Tracer, when set, records one span per propagation batch.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = par.Workers()
	}
	if c.CacheFrames == 0 {
		c.CacheFrames = 64
	}
	if c.GridFrames == 0 {
		c.GridFrames = 64
	}
	if c.GridStepSec <= 0 {
		c.GridStepSec = 60
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// frame is one full-constellation snapshot, immutable once published: done
// is closed once pos is filled.
type frame struct {
	t    float64
	pos  []geo.Vec3
	done chan struct{}
}

// newFrame returns an unfilled frame at t over pos.
func newFrame(t float64, pos []geo.Vec3) *frame {
	return &frame{t: t, pos: pos, done: make(chan struct{})}
}

// Stats is a point-in-time view of one engine's cache behaviour.
type Stats struct {
	// Hits and Misses count cache lookups across SnapshotAt and SnapshotInto,
	// the engine's Sweeps included.
	Hits, Misses uint64
	// Frames is the number of cached frames currently held (both tiers).
	Frames int
	// PropagatedSats counts individual satellite propagations performed.
	PropagatedSats uint64
}

// Engine is a shared, parallel, cached ephemeris for one constellation.
// All methods are safe for concurrent use.
type Engine struct {
	c   *constellation.Constellation
	cfg Config
	m   *metricsSet

	mu        sync.Mutex
	misc      map[uint64]*list.Element // Float64bits(t) → *frame element
	lru       *list.List               // misc eviction order, front = most recent
	grid      map[int64]*frame         // grid index → keyframe
	gridOrder []int64                  // grid insertion order (FIFO eviction)
	inflight  map[uint64]*frame        // Float64bits(t) → frame being propagated

	hits, misses, propagated atomic.Uint64
}

// New builds an engine over c. c must be non-nil and already built.
func New(c *constellation.Constellation, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		c:    c,
		cfg:  cfg,
		m:    newMetrics(cfg.Registry),
		misc: make(map[uint64]*list.Element),
		lru:  list.New(),
		grid: make(map[int64]*frame),
	}
}

// Constellation returns the constellation the engine propagates.
func (e *Engine) Constellation() *constellation.Constellation { return e.c }

// Size returns the number of satellites per frame.
func (e *Engine) Size() int { return e.c.Size() }

// GridStepSec returns the keyframe grid spacing.
func (e *Engine) GridStepSec() float64 { return e.cfg.GridStepSec }

// Stats returns this engine's cache counters. Metrics on the configured
// registry aggregate across engines; Stats is always per-engine.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Hits:           e.hits.Load(),
		Misses:         e.misses.Load(),
		Frames:         len(e.misc) + len(e.grid),
		PropagatedSats: e.propagated.Load(),
	}
}

// hit and miss count one frame lookup in the engine's counters and metrics.
func (e *Engine) hit() {
	e.hits.Add(1)
	e.m.hits.Inc()
}

func (e *Engine) miss() {
	e.misses.Add(1)
	e.m.misses.Inc()
}

// gridIndex reports whether t lies exactly on the keyframe grid and, if
// so, its grid index.
func (e *Engine) gridIndex(t float64) (int64, bool) {
	q := t / e.cfg.GridStepSec
	r := math.Round(q)
	if q != r || math.Abs(r) > 1e15 { // beyond 2^53 the grid is meaningless
		return 0, false
	}
	return int64(r), true
}

// lookup returns the cached or in-flight frame for t, or nil; a caller
// waits on its done before reading pos. Caller holds e.mu.
func (e *Engine) lookup(t float64) *frame {
	if gi, ok := e.gridIndex(t); ok {
		if f, ok := e.grid[gi]; ok {
			return f
		}
		// A grid instant may still sit in the LRU tier if the grid tier is
		// disabled; fall through.
	}
	if el, ok := e.misc[math.Float64bits(t)]; ok {
		e.lru.MoveToFront(el)
		return el.Value.(*frame)
	}
	return e.inflight[math.Float64bits(t)]
}

// insert publishes f in the cache, evicting per-tier as needed, and
// returns the canonical frame for f.t (an earlier racer's frame wins so
// same-time callers share one buffer). Caller holds e.mu.
func (e *Engine) insert(f *frame) *frame {
	if gi, ok := e.gridIndex(f.t); ok && e.cfg.GridFrames > 0 {
		if have, ok := e.grid[gi]; ok {
			return have
		}
		e.grid[gi] = f
		e.gridOrder = append(e.gridOrder, gi)
		if len(e.gridOrder) > e.cfg.GridFrames {
			delete(e.grid, e.gridOrder[0])
			e.gridOrder = e.gridOrder[1:]
		}
		e.m.frames.Set(float64(len(e.misc) + len(e.grid)))
		return f
	}
	if e.cfg.CacheFrames <= 0 {
		return f
	}
	key := math.Float64bits(f.t)
	if el, ok := e.misc[key]; ok {
		return el.Value.(*frame)
	}
	e.misc[key] = e.lru.PushFront(f)
	if e.lru.Len() > e.cfg.CacheFrames {
		last := e.lru.Back()
		e.lru.Remove(last)
		delete(e.misc, math.Float64bits(last.Value.(*frame).t))
	}
	e.m.frames.Set(float64(len(e.misc) + len(e.grid)))
	return f
}

// SnapshotAt returns the ECEF position of every satellite at t seconds
// after epoch, indexed by satellite ID. The returned slice is shared and
// immutable: do not modify it. Repeated calls for the same t return the
// same backing array while the frame is cached. A caller that misses while
// another is already propagating t waits for that frame and counts a hit.
func (e *Engine) SnapshotAt(t float64) []geo.Vec3 {
	e.mu.Lock()
	if f := e.lookup(t); f != nil {
		e.mu.Unlock()
		e.hit()
		<-f.done
		return f.pos
	}
	f := newFrame(t, make([]geo.Vec3, e.c.Size()))
	if e.inflight == nil {
		e.inflight = make(map[uint64]*frame)
	}
	e.inflight[math.Float64bits(t)] = f
	e.mu.Unlock()
	e.miss()

	e.propagate(t, f.pos)
	close(f.done)

	e.mu.Lock()
	delete(e.inflight, math.Float64bits(t))
	f = e.insert(f)
	e.mu.Unlock()
	return f.pos
}

// SnapshotInto fills dst (length Size()) with ECEF positions at t seconds
// after epoch. A cached or in-flight frame is copied out; a miss propagates
// directly into dst without caching, so sweeps over many distinct instants
// do not churn the cache. dst is the caller's to mutate.
func (e *Engine) SnapshotInto(t float64, dst []geo.Vec3) error {
	if len(dst) != e.c.Size() {
		return fmt.Errorf("ephem: SnapshotInto dst length %d, want %d satellites", len(dst), e.c.Size())
	}
	e.mu.Lock()
	f := e.lookup(t)
	e.mu.Unlock()
	if f != nil {
		e.hit()
		<-f.done
		copy(dst, f.pos)
		return nil
	}
	e.miss()
	e.propagate(t, dst)
	return nil
}

// PositionAt returns satellite id's exact ECEF position at t — bit-identical
// to SnapshotAt(t)[id] — without propagating, caching or consulting a
// frame. It is for callers that follow a handful of satellites through many
// instants (a Sticky look-ahead tracks its few band members every 5 s),
// where a full frame per instant is a thousandfold over-fetch.
func (e *Engine) PositionAt(t float64, id int) geo.Vec3 {
	e.m.propagated.Inc()
	e.propagated.Add(1)
	return e.c.Satellites[id].Prop.ECEFAt(t)
}

// propagate fills dst with exact positions at t, one orbit.ECEFInto per
// chunk. A satellite's position does not depend on where its chunk starts,
// so results are bit-identical regardless of Workers.
func (e *Engine) propagate(t float64, dst []geo.Vec3) {
	var sp *obs.Span
	if e.cfg.Tracer != nil {
		sp = e.cfg.Tracer.Start("ephem.propagate")
		sp.SetAttr("t_sec", fmt.Sprintf("%g", t))
		sp.SetAttr("sats", fmt.Sprintf("%d", len(dst)))
	}
	start := time.Now()
	props := e.c.Propagators()
	width := e.cfg.Workers
	if len(props) < minParallelSats {
		width = 1
	}
	par.Chunks(len(props), width, func(_, lo, hi int) {
		orbit.ECEFInto(props[lo:hi], t, dst[lo:hi])
	})
	e.m.propagateSec.Observe(time.Since(start).Seconds())
	e.m.propagated.Add(uint64(len(props)))
	e.propagated.Add(uint64(len(props)))
	if sp != nil {
		sp.End()
	}
}

// minParallelSats is the frame size below which fan-out costs more than
// the propagation it parallelises.
const minParallelSats = 512
