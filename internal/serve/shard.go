package serve

// The sharded discrete-event serving engine. The netsim-backed legacy
// engine (legacy.go) replays one global (time, seq) heap; this engine gets
// the same answers from a parallel plan, the playbook that scaled the fleet
// planner: simulate in refresh-aligned time slices, fan each slice out
// across workers, and merge worker results in a deterministic order so
// every per-seed output byte matches the serial run.
//
// Why slices compose exactly:
//
//   - Candidate lists, fault state, and the snapshot ring change only at
//     refresh boundaries, so within a slice every arrival at a site sees
//     the same candidates.
//   - All mutable simulation state (core busy-until, outstanding count,
//     busy seconds, in-flight records) is per-satellite; requests on
//     different satellites never interact. Once each arrival's satellite is
//     known, satellites simulate independently in per-satellite (time, seq)
//     order and the global replay order is irrelevant.
//   - For slice-local policies (nearest, sticky — Pick reads neither the
//     clock nor the load signals and re-picks its own choice), the picked
//     satellite is constant per site within a slice, so the assignment is
//     known up front: phase A classifies arrivals and memoizes one pick per
//     site, phase B shards satellites across workers and runs each
//     satellite's event heap. Site affinity (prev) commits at the slice
//     barrier — within the slice the pick is a fixed point, so the legacy
//     engine's per-arrival updates observe the same value.
//   - Least-loaded (and any external policy) reads global load signals at
//     every arrival, so its slices run a zero-alloc serial loop in exact
//     global (time, seq) order instead — same semantics, no fan-out.
//
// Two merged artifacts are order-canonicalized rather than replayed: the
// latency sample stream and the queue-depth delta stream, both keyed by
// (event time, arrival index). Those keys are unique per request, so the
// merge is a total order and identical for every worker count. Against the
// legacy engine the key reproduces its event order except when two
// *distinct* requests collide at an identical float64 timestamp on
// different satellites — a measure-zero coincidence for the continuous
// workloads the generator produces.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/units"
)

// serveSerialWork is the slice arrival count below which adaptive mode
// (Workers == 0) keeps the serial loop: under ~2k arrivals the fan-out
// barriers cost more than the parallel phase saves.
const serveSerialWork = 2048

// Shed slots in ShedReasons order, for the engine's fixed-size counters.
const (
	shedNoCov = iota
	shedDown
	shedQFull
	shedRefuse
)

// pendingReq is a fed request in the arrival arena: feed order is the
// global arrival sequence (Feed enforces monotonic times).
type pendingReq struct {
	t    float64 // arrival, seconds
	svc  float64 // service, seconds
	site int32
}

// Event kinds on a satellite's heap.
const (
	evUplink  uint8 = iota // request reaches the satellite, claims a core
	evRelease              // queued request leaves the queue (service starts)
	evDone                 // service + downlink complete
)

// satEvent is one simulation event, ordered by (t, seq). seq is per-heap
// schedule order; arrivals always precede events at equal times, matching
// the legacy kernel where feed-time sequence numbers are the lowest.
type satEvent struct {
	t    float64
	seq  uint32
	kind uint8
	sat  int32 // owning satellite (drives dispatch on the serial global heap)
	ref  int32 // slab record (evUplink/evDone) or owner arrival (evRelease)
}

// reqRec is an admitted in-flight request in its satellite's slab.
type reqRec struct {
	t     float64 // arrival time
	d     float64 // one-way propagation, seconds
	svc   float64 // service, seconds
	owner int32   // global arrival index: the deterministic merge key
}

// satShard is one satellite's simulation state. Each satellite is owned by
// exactly one worker per slice, so none of this is locked; the slab + free
// list recycle records across slices without churning the allocator.
type satShard struct {
	heap        []satEvent
	seq         uint32
	cores       []float64 // busy-until per core (lazy)
	outstanding int
	busySec     float64
	slab        []reqRec
	free        []int32
}

func (st *satShard) allocRec(r reqRec) int32 {
	if n := len(st.free); n > 0 {
		i := st.free[n-1]
		st.free = st.free[:n-1]
		st.slab[i] = r
		return i
	}
	st.slab = append(st.slab, r)
	return int32(len(st.slab) - 1)
}

func (st *satShard) earliestFree() float64 {
	if st.cores == nil {
		return 0
	}
	best := st.cores[0]
	for _, b := range st.cores[1:] {
		if b < best {
			best = b
		}
	}
	return best
}

// deltaEvt is a queue-depth change; the merge replays all shards' deltas in
// (t, owner) order to recover the global peak depth.
type deltaEvt struct {
	t     float64
	owner int32
	d     int8
}

// sampleRec is a served-request latency observation with its merge key.
type sampleRec struct {
	t     float64 // completion time
	owner int32
	ms    float64
}

// shardAcct is one worker's per-slice scratch: counters merged in worker
// order, streams merged in key order. Padded so concurrent workers do not
// share cache lines.
type shardAcct struct {
	served    int
	inflightD int
	shed      [4]int
	samples   []sampleRec
	deltas    []deltaEvt
	_         [64]byte
}

// evLess orders events by (t, seq).
func evLess(a, b satEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func heapPush(h *[]satEvent, e satEvent) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func heapPop(h *[]satEvent) satEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && evLess(s[l], s[m]) {
			m = l
		}
		if r < n && evLess(s[r], s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Engine simulates request serving for one routing policy. Drive it with
// Feed (workload) and RunUntil (time); read Result anytime. All behaviour
// is deterministic in (constellation, config, fed requests) and identical
// for every Workers setting and GOMAXPROCS value.
type Engine struct {
	cfg    Config
	net    *netgraph.Network
	policy Policy
	local  bool // policy picks are slice-local: slices may fan out

	coresPerSat int
	queueCap    int // -1 = unbounded
	nsats       int

	now      float64
	refreshN int     // refreshes performed; the next is due at refreshN*RefreshSec
	lastFed  float64 // monotonic-feed floor

	// ring holds snapshots at now, now+refresh, ..., now+lookahead*refresh;
	// rotated one slot per refresh so steady state freezes one new graph.
	ring []*netgraph.Snapshot

	cands    [][]Candidate // per site, rebuilt each refresh
	downOnly []bool        // per site: visible sats exist but all are down
	prevSat  []int         // per site: satellite that served the last request

	pending []pendingReq // arrival arena, consumed by cursor
	cursor  int

	sats []satShard

	// Serial-path global heap (least-loaded and external policies): exact
	// legacy (time, seq) replay, slab-backed instead of closure-backed.
	gheap []satEvent
	gseq  uint32

	// Per-slice scratch for the fan-out path.
	segGen    uint32
	siteGen   []uint32  // per site: memo generation
	siteAdmit []uint32  // per site: generation of the last admitted slice
	sitePick  []int32   // per site: sat (>=0) or -(1+shed slot)
	sitePickD []float64 // per site: one-way seconds of the picked sat
	acct      []shardAcct
	segDeltas []deltaEvt
	segSamps  []sampleRec

	offered  int
	served   int
	inflight int
	shedN    [4]int
	latency  *stats.CDF
	nQueued  int
	peakQ    int

	workersUsed    int
	parallelSlices int
	serialSlices   int

	// Metric deltas since the last flush (RunUntil boundaries).
	pendSamples []float64
	repOffered  int
	repServed   int
	repShed     [4]int
	repParallel int
	repSerial   int

	m          *metricsSet
	reqC       *obs.Counter
	servedC    *obs.Counter
	shedC      map[ShedReason]*obs.Counter
	latQ       *obs.Quantile
	queueG     *obs.Gauge
	inflightG  *obs.Gauge
	slicesParC *obs.Counter
	slicesSerC *obs.Counter
	workersG   *obs.Gauge
}

// NewEngine builds a serving engine over the constellation. The refresh
// chain starts at t=0; call Feed then RunUntil.
func NewEngine(c *constellation.Constellation, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if c == nil {
		return nil, fmt.Errorf("serve: nil constellation")
	}
	if err := validateConfig(c.Size(), cfg); err != nil {
		return nil, err
	}
	_, local := cfg.Policy.(sliceLocalPolicy)
	e := &Engine{
		cfg:         cfg,
		policy:      cfg.Policy,
		local:       local,
		coresPerSat: int(math.Max(1, math.Floor(cfg.Server.EffectiveCores()))),
		queueCap:    cfg.QueueCap,
		nsats:       c.Size(),
		cands:       make([][]Candidate, len(cfg.Sites)),
		downOnly:    make([]bool, len(cfg.Sites)),
		prevSat:     make([]int, len(cfg.Sites)),
		sats:        make([]satShard, c.Size()),
		siteGen:     make([]uint32, len(cfg.Sites)),
		siteAdmit:   make([]uint32, len(cfg.Sites)),
		sitePick:    make([]int32, len(cfg.Sites)),
		sitePickD:   make([]float64, len(cfg.Sites)),
		latency:     stats.NewCDF(),
	}
	for i := range e.prevSat {
		e.prevSat[i] = -1
	}
	gls := make([]geo.LatLon, len(cfg.Sites))
	for i, s := range cfg.Sites {
		gls[i] = s.Loc
	}
	e.net = netgraph.New(c, gls)
	if cfg.Ephem != nil {
		e.net.UseEphemeris(cfg.Ephem)
	}
	if cfg.Registry != nil {
		e.m = newMetricsSet(cfg.Registry)
		name := cfg.Policy.Name()
		e.reqC = e.m.requests.With(name)
		e.servedC = e.m.served.With(name)
		e.shedC = make(map[ShedReason]*obs.Counter, len(ShedReasons))
		for _, r := range ShedReasons {
			e.shedC[r] = e.m.shed.With(name, string(r))
		}
		e.latQ = e.m.latency.With(name)
		e.queueG = e.m.queue.With(name)
		e.inflightG = e.m.inflight.With(name)
		e.slicesParC = e.m.slices.With(name, "parallel")
		e.slicesSerC = e.m.slices.With(name, "serial")
		e.workersG = e.m.workers.With(name)
	}
	e.refresh(0)
	e.refreshN = 1
	return e, nil
}

// refresh rebuilds fault state, the snapshot ring, and per-site candidate
// lists at time t — the per-slice batch that replaces per-arrival lookups.
func (e *Engine) refresh(t float64) {
	if e.cfg.Faults != nil {
		e.cfg.Faults.Advance(t)
	}
	step := e.cfg.RefreshSec
	depth := e.cfg.LookaheadEpochs + 1
	// Ring snapshots chain onto the previously built one, so each refresh
	// freezes as a visibility delta instead of a full rescan (the times are
	// strictly increasing across refreshes by construction).
	if len(e.ring) == 0 {
		e.ring = make([]*netgraph.Snapshot, 0, depth)
		var prev *netgraph.Snapshot
		for k := 0; k < depth; k++ {
			s := e.net.AtAfter(prev, t+float64(k)*step)
			e.ring = append(e.ring, s)
			prev = s
		}
	} else {
		copy(e.ring, e.ring[1:])
		e.ring[depth-1] = e.net.AtAfter(e.ring[depth-2], t+float64(depth-1)*step)
	}
	now := e.ring[0]
	for si := range e.cfg.Sites {
		vis := now.VisibleSats(si)
		futures := make([][]int, len(e.ring)-1)
		for k := 1; k < len(e.ring); k++ {
			futures[k-1] = e.ring[k].VisibleSats(si)
		}
		gpos := now.Position(e.net.GroundNode(si))
		cands := e.cands[si][:0]
		for _, sat := range vis {
			if e.cfg.Faults != nil && !e.cfg.Faults.SatUp(sat) {
				continue
			}
			life := 0.0
			for _, fut := range futures {
				if !containsSorted(fut, sat) {
					break
				}
				life += step
			}
			cands = append(cands, Candidate{
				SatID:    sat,
				OneWayMs: units.PropagationDelayMs(gpos.Distance(now.Position(e.net.SatNode(sat)))),
				LifeSec:  life,
			})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].OneWayMs != cands[j].OneWayMs {
				return cands[i].OneWayMs < cands[j].OneWayMs
			}
			return cands[i].SatID < cands[j].SatID
		})
		e.cands[si] = cands
		e.downOnly[si] = len(cands) == 0 && len(vis) > 0
	}
}

// Feed appends requests to the arrival arena. Arrival times must be
// non-decreasing across all Feed calls and must not predate the current
// simulation time; violations return an error wrapping ErrNonMonotonic.
func (e *Engine) Feed(reqs []Request) error {
	for i := range reqs {
		r := reqs[i]
		if err := r.Validate(); err != nil {
			return fmt.Errorf("serve: request %d: %w", i, err)
		}
		if r.Site >= len(e.cfg.Sites) {
			return fmt.Errorf("serve: request %d: site %d out of range (%d sites)",
				i, r.Site, len(e.cfg.Sites))
		}
		if r.TSec < e.lastFed {
			return fmt.Errorf("serve: request %d at t=%gs before already-fed t=%gs: %w",
				i, r.TSec, e.lastFed, ErrNonMonotonic)
		}
		if r.TSec < e.now {
			return fmt.Errorf("serve: request %d at t=%gs before simulation time %gs: %w",
				i, r.TSec, e.now, ErrNonMonotonic)
		}
		e.lastFed = r.TSec
		e.pending = append(e.pending, pendingReq{t: r.TSec, svc: r.ServiceMs / 1000, site: int32(r.Site)})
	}
	return nil
}

// RunUntil advances the simulation to tSec (inclusive of events at tSec),
// slice by slice with a refresh at each boundary.
func (e *Engine) RunUntil(tSec float64) {
	for {
		next := float64(e.refreshN) * e.cfg.RefreshSec
		if next <= tSec {
			// Arrivals at exactly the first boundary land after that refresh
			// (its event predates every feed in the legacy order); later
			// boundaries are scheduled mid-run and lose the tie to arrivals.
			e.runSegment(next, e.refreshN == 1)
			e.now = next
			e.refresh(next)
			e.refreshN++
			continue
		}
		e.runSegment(tSec, false)
		if tSec > e.now {
			e.now = tSec
		}
		break
	}
	e.flushMetrics()
}

// Now returns the engine's simulation time.
func (e *Engine) Now() float64 { return e.now }

// runSegment consumes arrivals up to hi and advances every satellite's
// event heap to hi (inclusive).
func (e *Engine) runSegment(hi float64, excludeAtHi bool) {
	lo := e.cursor
	j := lo
	for j < len(e.pending) {
		t := e.pending[j].t
		if t > hi || (excludeAtHi && t == hi) {
			break
		}
		j++
	}
	e.cursor = j
	n := j - lo
	if !e.local {
		if n > 0 {
			e.serialSlices++
			if e.workersUsed < 1 {
				e.workersUsed = 1
			}
		}
		e.runSerialSegment(lo, j, hi)
		return
	}
	shards := e.shardsFor(n)
	if n > 0 {
		if shards > 1 {
			e.parallelSlices++
		} else {
			e.serialSlices++
		}
		if e.workersUsed < shards {
			e.workersUsed = shards
		}
	}
	e.runLocalSegment(lo, j, hi, shards)
}

// shardsFor resolves the slice fan-out for n arrivals.
func (e *Engine) shardsFor(n int) int {
	w := e.cfg.Workers
	switch {
	case n == 0, w == 1:
		return 1
	case w > 1:
		return w
	}
	if n < serveSerialWork {
		return 1
	}
	return par.Workers()
}

// ---- fan-out path (slice-local policies) ----

func (e *Engine) runLocalSegment(lo, hi int, end float64, shards int) {
	e.segGen++
	for len(e.acct) < shards {
		e.acct = append(e.acct, shardAcct{})
	}
	// One slot per shard; the return of the first fan-out is the memo
	// barrier: phase B reads every shard's site picks.
	par.Chunks(shards, shards, func(w, _, _ int) { e.localClassify(lo, hi, w, shards) })
	par.Chunks(shards, shards, func(w, _, _ int) { e.localSimulate(lo, hi, end, w, shards) })
	e.mergeSegment(lo, hi, shards)
}

// localClassify (phase A, sites sharded site%shards): memoize the one pick
// every arrival at a site resolves to this slice, and count the sheds that
// need no simulation.
func (e *Engine) localClassify(lo, hi, w, shards int) {
	a := &e.acct[w]
	gen := e.segGen
	for i := lo; i < hi; i++ {
		site := int(e.pending[i].site)
		if site%shards != w {
			continue
		}
		if e.siteGen[site] != gen {
			e.memoSite(site, e.pending[i].t, gen)
		}
		if pick := e.sitePick[site]; pick < 0 {
			a.shed[-pick-1]++
		}
	}
}

// memoSite resolves a site's slice pick. Slice-local picks ignore the clock
// and load signals, and re-pick their own previous choice, so one call
// stands in for every arrival the site gets this slice — including the
// legacy engine's mid-slice prev updates, which only ever install this same
// fixed point.
func (e *Engine) memoSite(site int, tArr float64, gen uint32) {
	cands := e.cands[site]
	var pick int32
	var d float64
	switch {
	case len(cands) == 0 && e.downOnly[site]:
		pick = -(1 + shedDown)
	case len(cands) == 0:
		pick = -(1 + shedNoCov)
	default:
		idx := e.policy.Pick(tArr, e.prevSat[site], cands)
		if idx < 0 || idx >= len(cands) {
			pick = -(1 + shedRefuse)
		} else {
			pick = int32(cands[idx].SatID)
			d = cands[idx].OneWayMs / 1000
		}
	}
	e.sitePick[site] = pick
	e.sitePickD[site] = d
	e.siteGen[site] = gen
}

// localSimulate (phase B, satellites sharded sat%shards): admit this
// worker's satellites' arrivals in global feed order, interleaved with
// their event heaps in per-satellite (time, seq) order.
func (e *Engine) localSimulate(lo, hi int, end float64, w, shards int) {
	a := &e.acct[w]
	gen := e.segGen
	for i := lo; i < hi; i++ {
		p := e.pending[i]
		pick := e.sitePick[p.site]
		if pick < 0 {
			continue
		}
		sat := int(pick)
		if sat%shards != w {
			continue
		}
		st := &e.sats[sat]
		e.drainSat(st, a, p.t, false) // events strictly before the arrival
		if e.queueCap >= 0 && st.outstanding >= e.coresPerSat+e.queueCap {
			a.shed[shedQFull]++
			continue
		}
		e.siteAdmit[p.site] = gen // single writer: this sat owns the site's slice
		st.outstanding++
		a.inflightD++
		d := e.sitePickD[p.site]
		ref := st.allocRec(reqRec{t: p.t, d: d, svc: p.svc, owner: int32(i)})
		heapPush(&st.heap, satEvent{t: p.t + d, seq: st.seq, kind: evUplink, sat: pick, ref: ref})
		st.seq++
	}
	for sat := w; sat < e.nsats; sat += shards {
		e.drainSat(&e.sats[sat], a, end, true)
	}
}

// drainSat runs one satellite's events up to limit (exclusive before an
// arrival — arrivals win ties — inclusive at the slice end).
func (e *Engine) drainSat(st *satShard, a *shardAcct, limit float64, inclusive bool) {
	for len(st.heap) > 0 {
		t := st.heap[0].t
		if inclusive {
			if t > limit {
				break
			}
		} else if t >= limit {
			break
		}
		ev := heapPop(&st.heap)
		switch ev.kind {
		case evUplink:
			rec := st.slab[ev.ref]
			ci := e.pickCore(st)
			start := math.Max(ev.t, st.cores[ci])
			st.cores[ci] = start + rec.svc
			st.busySec += rec.svc
			if start > ev.t {
				a.deltas = append(a.deltas, deltaEvt{t: ev.t, owner: rec.owner, d: 1})
				heapPush(&st.heap, satEvent{t: start, seq: st.seq, kind: evRelease, sat: ev.sat, ref: rec.owner})
				st.seq++
			}
			heapPush(&st.heap, satEvent{t: start + rec.svc, seq: st.seq, kind: evDone, sat: ev.sat, ref: ev.ref})
			st.seq++
		case evRelease:
			a.deltas = append(a.deltas, deltaEvt{t: ev.t, owner: ev.ref, d: -1})
		case evDone:
			rec := st.slab[ev.ref]
			st.outstanding--
			a.inflightD--
			a.served++
			a.samples = append(a.samples, sampleRec{t: ev.t, owner: rec.owner, ms: (ev.t - rec.t + rec.d) * 1000})
			st.free = append(st.free, ev.ref)
		}
	}
}

// pickCore returns the satellite's earliest-free core index (lowest index
// on ties, keeping runs deterministic).
func (e *Engine) pickCore(st *satShard) int {
	if st.cores == nil {
		st.cores = make([]float64, e.coresPerSat)
	}
	ci, best := 0, st.cores[0]
	for i := 1; i < len(st.cores); i++ {
		if st.cores[i] < best {
			best = st.cores[i]
			ci = i
		}
	}
	return ci
}

// mergeSegment folds worker results into the engine in deterministic order:
// counters in worker order (sums commute), streams in (t, owner) key order,
// site affinity at the barrier.
func (e *Engine) mergeSegment(lo, hi, shards int) {
	e.offered += hi - lo
	e.segDeltas = e.segDeltas[:0]
	e.segSamps = e.segSamps[:0]
	for w := 0; w < shards; w++ {
		a := &e.acct[w]
		e.served += a.served
		e.inflight += a.inflightD
		for r := range e.shedN {
			e.shedN[r] += a.shed[r]
		}
		e.segSamps = append(e.segSamps, a.samples...)
		e.segDeltas = append(e.segDeltas, a.deltas...)
		a.served, a.inflightD, a.shed = 0, 0, [4]int{}
		a.samples = a.samples[:0]
		a.deltas = a.deltas[:0]
	}
	// (t, owner) is unique per record — one completion per request, and a
	// request's queue entry and exit never coincide — so both sorts induce
	// a total order independent of the fan-out that produced the slices.
	sort.Slice(e.segSamps, func(i, j int) bool {
		if e.segSamps[i].t != e.segSamps[j].t {
			return e.segSamps[i].t < e.segSamps[j].t
		}
		return e.segSamps[i].owner < e.segSamps[j].owner
	})
	for _, s := range e.segSamps {
		e.latency.Add(s.ms)
		e.pendSamples = append(e.pendSamples, s.ms)
	}
	sort.Slice(e.segDeltas, func(i, j int) bool {
		if e.segDeltas[i].t != e.segDeltas[j].t {
			return e.segDeltas[i].t < e.segDeltas[j].t
		}
		return e.segDeltas[i].owner < e.segDeltas[j].owner
	})
	for _, d := range e.segDeltas {
		e.nQueued += int(d.d)
		if e.nQueued > e.peakQ {
			e.peakQ = e.nQueued
		}
	}
	gen := e.segGen
	for site := range e.sitePick {
		if e.siteGen[site] == gen && e.siteAdmit[site] == gen {
			e.prevSat[site] = int(e.sitePick[site])
		}
	}
}

// ---- serial path (globally load-coupled policies) ----

// runSerialSegment replays the slice on one goroutine in exact global
// (time, seq) order: what the legacy engine does, minus its per-event
// closure allocations.
func (e *Engine) runSerialSegment(lo, hi int, end float64) {
	for i := lo; i < hi; i++ {
		p := e.pending[i]
		e.serialDrain(p.t, false)
		e.serialArrive(i, p)
	}
	e.serialDrain(end, true)
}

func (e *Engine) serialArrive(idx int, p pendingReq) {
	e.offered++
	site := int(p.site)
	cands := e.cands[site]
	if len(cands) == 0 {
		if e.downOnly[site] {
			e.shedN[shedDown]++
		} else {
			e.shedN[shedNoCov]++
		}
		return
	}
	for i := range cands {
		st := &e.sats[cands[i].SatID]
		cands[i].FreeAtSec = st.earliestFree()
		cands[i].Queued = st.outstanding
	}
	pi := e.policy.Pick(p.t, e.prevSat[site], cands)
	if pi < 0 || pi >= len(cands) {
		e.shedN[shedRefuse]++
		return
	}
	sat := cands[pi].SatID
	st := &e.sats[sat]
	if e.queueCap >= 0 && st.outstanding >= e.coresPerSat+e.queueCap {
		e.shedN[shedQFull]++
		return
	}
	e.prevSat[site] = sat
	st.outstanding++
	e.inflight++
	d := cands[pi].OneWayMs / 1000
	ref := st.allocRec(reqRec{t: p.t, d: d, svc: p.svc, owner: int32(idx)})
	heapPush(&e.gheap, satEvent{t: p.t + d, seq: e.gseq, kind: evUplink, sat: int32(sat), ref: ref})
	e.gseq++
}

func (e *Engine) serialDrain(limit float64, inclusive bool) {
	for len(e.gheap) > 0 {
		t := e.gheap[0].t
		if inclusive {
			if t > limit {
				break
			}
		} else if t >= limit {
			break
		}
		ev := heapPop(&e.gheap)
		st := &e.sats[ev.sat]
		switch ev.kind {
		case evUplink:
			rec := st.slab[ev.ref]
			ci := e.pickCore(st)
			start := math.Max(ev.t, st.cores[ci])
			st.cores[ci] = start + rec.svc
			st.busySec += rec.svc
			if start > ev.t {
				e.queueDelta(+1)
				heapPush(&e.gheap, satEvent{t: start, seq: e.gseq, kind: evRelease, sat: ev.sat, ref: rec.owner})
				e.gseq++
			}
			heapPush(&e.gheap, satEvent{t: start + rec.svc, seq: e.gseq, kind: evDone, sat: ev.sat, ref: ev.ref})
			e.gseq++
		case evRelease:
			e.queueDelta(-1)
		case evDone:
			rec := st.slab[ev.ref]
			st.outstanding--
			e.inflight--
			e.served++
			respMs := (ev.t - rec.t + rec.d) * 1000
			e.latency.Add(respMs)
			e.pendSamples = append(e.pendSamples, respMs)
			st.free = append(st.free, ev.ref)
		}
	}
}

func (e *Engine) queueDelta(d int) {
	e.nQueued += d
	if e.nQueued > e.peakQ {
		e.peakQ = e.nQueued
	}
}

// ---- reporting ----

// flushMetrics reconciles the obs registry with the engine's accounting at
// RunUntil boundaries — the points the flight recorder samples.
func (e *Engine) flushMetrics() {
	if e.m == nil {
		e.pendSamples = e.pendSamples[:0]
		return
	}
	if d := e.offered - e.repOffered; d > 0 {
		e.reqC.Add(uint64(d))
		e.repOffered = e.offered
	}
	if d := e.served - e.repServed; d > 0 {
		e.servedC.Add(uint64(d))
		e.repServed = e.served
	}
	for i, r := range ShedReasons {
		if d := e.shedN[i] - e.repShed[i]; d > 0 {
			e.shedC[r].Add(uint64(d))
			e.repShed[i] = e.shedN[i]
		}
	}
	for _, s := range e.pendSamples {
		e.latQ.Observe(s)
	}
	e.pendSamples = e.pendSamples[:0]
	if d := e.parallelSlices - e.repParallel; d > 0 {
		e.slicesParC.Add(uint64(d))
		e.repParallel = e.parallelSlices
	}
	if d := e.serialSlices - e.repSerial; d > 0 {
		e.slicesSerC.Add(uint64(d))
		e.repSerial = e.serialSlices
	}
	e.queueG.Set(float64(e.nQueued))
	e.inflightG.Set(float64(e.inflight))
	e.workersG.Set(float64(e.Stats().Workers))
}

// Stats reports the run's execution shape (fan-out and slice modes).
func (e *Engine) Stats() EngineStats {
	w := e.workersUsed
	if w < 1 {
		w = 1
	}
	return EngineStats{
		Workers:        w,
		ParallelSlices: e.parallelSlices,
		SerialSlices:   e.serialSlices,
	}
}

// Result snapshots the engine's accounting at the current simulation time.
func (e *Engine) Result() Result {
	shed := make(map[ShedReason]int, len(ShedReasons))
	for i, r := range ShedReasons {
		if e.shedN[i] > 0 {
			shed[r] = e.shedN[i]
		}
	}
	util := make([]float64, e.nsats)
	if e.now > 0 {
		denom := e.now * float64(e.coresPerSat)
		for i := range e.sats {
			util[i] = e.sats[i].busySec / denom
		}
	}
	used := 0
	for i := range e.sats {
		if e.sats[i].busySec > 0 {
			used++
		}
	}
	return Result{
		Policy:      e.policy.Name(),
		Offered:     e.offered,
		Served:      e.served,
		InFlight:    e.inflight,
		Shed:        shed,
		LatencyMs:   e.latency,
		Utilization: util,
		SatsUsed:    used,
		PeakQueued:  e.peakQ,
	}
}
