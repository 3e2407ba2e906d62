package serve

// The slab-backed discrete-event serving engine. The legacy engine (the
// test oracle, legacy_test.go) replays one closure per event through a
// global (time, seq) heap; this engine gets the same answers on
// one goroutine from refresh-aligned time slices, and picks one of two
// replay orders from the policy it was given.
//
// Why slices compose exactly:
//
//   - Candidate lists, fault state, and the look-ahead ring change only at
//     refresh boundaries, so within a slice every arrival at a site sees
//     the same candidates.
//   - All mutable simulation state (core busy-until, outstanding count,
//     busy seconds, in-flight records) is per-satellite; requests on
//     different satellites never interact. Once each arrival's satellite is
//     known, satellites simulate independently in per-satellite (time, seq)
//     order and the global replay order is irrelevant.
//   - For slice-local policies (nearest, sticky — Pick reads neither the
//     clock nor the load signals and re-picks its own choice), the picked
//     satellite is constant per site within a slice. One pass over the
//     slice's arrivals memoizes one pick per site and advances only the
//     picked satellite's own small heap up to the arrival; every other
//     satellite catches up at the slice end. The legacy engine's per-arrival
//     affinity (prev) updates only ever install that same fixed point.
//   - Least-loaded (and any external policy) reads global load signals at
//     every arrival, so its slices replay one global heap in exact
//     (time, seq) order instead — same semantics, one Pick per arrival.
//     Pick reads the engine's load book in place, so an arrival costs
//     least-loaded's scan alone, which stops at the first candidate too
//     far away to win.
//
// Both orders pay inside the repo benchmark (EXPERIMENTS.md, "Receipts"):
// the memo + per-satellite heaps take about 40 % off the slice-local
// policies' replay time against the global heap, and folding the
// load-coupled policies onto per-satellite heaps with a lazy candidate
// drain measured 30 % slower.
//
// On the slice-local path two artifacts are order-canonicalized rather than
// replayed: the latency sample stream and the queue-depth delta stream,
// both keyed by (event time, arrival index). Those keys are unique per
// request, so the merge is a total order. Against the legacy engine the key
// reproduces its event order except when two *distinct* requests collide at
// an identical float64 timestamp on different satellites — a measure-zero
// coincidence for the continuous workloads the generator produces. The
// latency sketch's float sum folds as the legacy engine's only in this order;
// sortRecs produces it with a distribution sort, no comparison sort and no
// allocation (EXPERIMENTS.md, "Receipts").

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/visibility"
)

// Shed slots in ShedReasons order, for the engine's fixed-size counters.
const (
	shedNoCov = iota
	shedDown
	shedQFull
	shedRefuse
)

// Source is a stream of arrivals in non-decreasing time order. The engine
// pulls it one run at a time, as the simulation clock reaches the arrivals,
// and copies nothing: memory is the in-flight requests plus the current run.
type Source interface {
	// Next returns the next run of arrivals, empty once the stream has
	// ended. The engine only reads the run, and is done with it by the
	// following call.
	Next() []Request
}

// fedBatch is a slice handed to Feed, yielded whole and in place.
type fedBatch struct{ reqs []Request }

func (b *fedBatch) Next() []Request {
	reqs := b.reqs
	b.reqs = nil
	return reqs
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
	sat  int32 // owning satellite (drives dispatch on the global heap)
	ref  int32 // slab record (evUplink/evDone) or owner arrival (evRelease)
}

// reqRec is an admitted in-flight request in its satellite's slab.
type reqRec struct {
	t     float64 // arrival time
	d     float64 // one-way propagation, seconds
	svc   float64 // service, seconds
	owner int32   // global arrival index: the deterministic merge key
}

// satShard is one satellite's simulation state. The slab + free list
// recycle records across slices without churning the allocator, and keep
// heap entries at 24 bytes: carrying the request inline doubles them and
// measured slower on serve-heavy (EXPERIMENTS.md, "Receipts"). heap and seq
// are used only on the slice-local path.
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

// mergeRec is one record of the two streams the slice merge replays in
// (t, owner) order: a served request's latency in ms, or a queue-depth
// change of ±1.
type mergeRec struct {
	t     float64 // event time
	owner int32   // global arrival index
	v     float64
}

// byTimeOwner compares two records' (t, owner) merge keys.
func byTimeOwner(a, b mergeRec) int {
	if a.t != b.t {
		if a.t < b.t {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.owner, b.owner)
}

// sortMaxBits caps sortRecs at 2,048 buckets: two int32 counter arrays,
// 16 KB of stack.
const sortMaxBits = 11

// recKey maps a record's time, or with byOwner its owner, to an integer in
// the same order, with -0 equal to +0. NaN, which no simulated time is, has
// no place in it.
func recKey(r *mergeRec, byOwner bool) uint64 {
	b := math.Float64bits(r.t)
	switch {
	case byOwner:
		return uint64(uint32(r.owner) ^ 1<<31)
	case r.t == 0:
		return 1 << 63
	case b>>63 != 0:
		return ^b
	}
	return b | 1<<63
}

// sortRecs puts s in byTimeOwner order with a distribution sort that
// allocates nothing. One pass finds the keys' range, one counts the records
// per bucket — about one bucket per four records, over the range's top
// bits — and one permutes them into place in cycles. Buckets longer than 48
// go round again, on owner keys once their times all agree; insertion sorts
// with byTimeOwner finish the rest.
func sortRecs(s []mergeRec, byOwner bool) {
	if len(s) <= 48 {
		for i := 1; i < len(s); i++ {
			r, j := s[i], i
			for ; j > 0 && byTimeOwner(r, s[j-1]) < 0; j-- {
				s[j] = s[j-1]
			}
			s[j] = r
		}
		return
	}
	lo, hi := recKey(&s[0], byOwner), recKey(&s[0], byOwner)
	for i := range s {
		k := recKey(&s[i], byOwner)
		lo, hi = min(lo, k), max(hi, k)
	}
	if lo == hi {
		if !byOwner {
			sortRecs(s, true)
		}
		return
	}
	width := min(bits.Len(uint(len(s)))-2, sortMaxBits)
	shift := uint(max(bits.Len64(hi-lo)-width, 0))
	nb := int((hi-lo)>>shift) + 1
	var next, end [1 << sortMaxBits]int32
	for i := range s {
		end[(recKey(&s[i], byOwner)-lo)>>shift]++
	}
	sum := int32(0)
	for b, n := range end[:nb] {
		next[b] = sum
		sum += n
		end[b] = sum
	}
	for b := range next[:nb] {
		for next[b] < end[b] {
			r := s[next[b]]
			for d := (recKey(&r, byOwner) - lo) >> shift; d != uint64(b); d = (recKey(&r, byOwner) - lo) >> shift {
				s[next[d]], r = r, s[next[d]]
				next[d]++
			}
			s[next[b]] = r
			next[b]++
		}
	}
	start := int32(0)
	for _, stop := range end[:nb] {
		if stop-start > 1 {
			sortRecs(s[start:stop], byOwner)
		}
		start = stop
	}
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

// lookaheadEpochs is the depth of the engine's look-ahead ring: how many
// future refresh intervals a candidate's remaining visibility
// (Candidate.LifeSec, read by affinity policies) is counted over.
const lookaheadEpochs = 3

// Engine simulates request serving for one routing policy. Drive it with
// Feed or FeedFrom (workload) and RunUntil (time); read Result anytime. All
// behaviour is deterministic in (constellation, config, arrivals).
type Engine struct {
	cfg    Config
	policy Policy
	local  bool // policy picks are slice-local: memo + per-satellite heaps

	coresPerSat int
	queueCap    int // -1 = unbounded
	nsats       int

	now      float64
	refreshN int // refreshes performed; the next is due at refreshN*RefreshSec

	// ring holds the frames at now, now+refresh, ...,
	// now+lookaheadEpochs*refresh, advanced one slot per refresh; surf
	// answers which satellites each site sees in slot 0, and grounds (the
	// sites' surface vectors) are what the look-ahead tests.
	ring    *visibility.Ring
	surf    *visibility.Surface
	grounds []geo.Vec3

	cands    [][]Candidate // per site, rebuilt each refresh
	downOnly []bool        // per site: visible sats exist but all are down
	prevSat  []int         // per site: satellite that served the last request

	// Arrivals: queued sources drained in order, one pulled run at a time.
	// The engine owns no copy; cur aliases the source's (or Feed caller's)
	// memory and cur[pos:] is what the clock has not reached yet.
	queue    []Source
	cur      []Request
	pos      int
	lastFed  float64 // Feed's monotonic floor: the last request accepted
	lastPull float64 // the pull-time floor: the last arrival made current
	srcErr   error   // first bad arrival pulled; ends the stream, sticky

	sats []satShard

	// Global heap (least-loaded and external policies): exact legacy
	// (time, seq) replay, slab-backed instead of closure-backed. freeAt is
	// its load book by sat ID: the min of its cores, 0 before a claim.
	gheap  []satEvent
	gseq   uint32
	freeAt []float64

	// Per-slice scratch for the slice-local path.
	segGen    uint32
	siteGen   []uint32  // per site: memo generation
	sitePick  []int32   // per site: sat (>=0) or -(1+shed slot)
	sitePickD []float64 // per site: one-way seconds of the picked sat
	segDeltas []mergeRec
	segSamps  []mergeRec

	offered  int // arrivals simulated so far: the next one's merge key
	served   int
	inflight int
	shedN    [4]int
	latency  *stats.CDF
	nQueued  int
	peakQ    int

	slices int // runSegment calls that had arrivals (EngineStats)

	// Metric deltas since the last flush (RunUntil boundaries).
	pendSamples []float64
	repOffered  int
	repServed   int
	repShed     [4]int

	m         *metricsSet
	reqC      *obs.Counter
	servedC   *obs.Counter
	shedC     map[ShedReason]*obs.Counter
	latQ      *obs.Quantile
	queueG    *obs.Gauge
	inflightG *obs.Gauge
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
		freeAt:      make([]float64, c.Size()),
		siteGen:     make([]uint32, len(cfg.Sites)),
		sitePick:    make([]int32, len(cfg.Sites)),
		sitePickD:   make([]float64, len(cfg.Sites)),
		latency:     stats.NewCDF(),
	}
	for i := range e.prevSat {
		e.prevSat[i] = -1
	}
	e.grounds = make([]geo.Vec3, len(cfg.Sites))
	locs := make([]geo.LatLon, len(cfg.Sites))
	for i, s := range cfg.Sites {
		e.grounds[i], locs[i] = s.Loc.ECEF(), s.Loc
	}
	o := visibility.NewObserver(c)
	e.ring = visibility.NewRing(o, cfg.Ephem, 0, cfg.RefreshSec, lookaheadEpochs)
	e.surf = visibility.NewSurface(o, locs)
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
	}
	e.refresh(0)
	e.refreshN = 1
	return e, nil
}

// refresh rebuilds fault state and the per-site candidate lists at time t,
// the ring's slot-0 time — the per-slice batch that replaces per-arrival
// lookups.
func (e *Engine) refresh(t float64) {
	if e.cfg.Faults != nil {
		e.cfg.Faults.Advance(t)
	}
	e.fillCands()
}

// fillCands rebuilds each site's candidates: the satellites up and in view
// in the ring's slot 0, nearest first, each with how long the ring keeps it
// in view.
func (e *Engine) fillCands() {
	inj := e.cfg.Faults
	step := e.cfg.RefreshSec
	now := e.ring.Frame(0)
	e.surf.Scan(now, func(rows [][]int32) {
		for si, row := range rows {
			site := e.grounds[si : si+1]
			cands := e.cands[si][:0]
			for _, id := range row {
				if inj != nil && !inj.SatUp(int(id)) {
					continue
				}
				life := 0.0
				for n := e.ring.Life(site, int(id)); n > 0; n-- {
					life += step
				}
				cands = append(cands, Candidate{SatID: int(id), OneWayMs: units.PropagationDelayMs(site[0].Distance(now[id])), LifeSec: life})
			}
			slices.SortFunc(cands, func(a, b Candidate) int {
				if c := cmp.Compare(a.OneWayMs, b.OneWayMs); c != 0 {
					return c
				}
				return cmp.Compare(a.SatID, b.SatID)
			})
			e.cands[si] = cands
			e.downOnly[si] = len(cands) == 0 && len(row) > 0
		}
	})
}

// checkArrivals applies the arrival contract to a run: each request
// well-formed, its site in range, times non-decreasing from floor and never
// behind the simulation clock. It returns how many leading requests pass
// and, if that is not all of them, what is wrong with the next one.
func (e *Engine) checkArrivals(reqs []Request, floor float64) (int, error) {
	for i := range reqs {
		r := &reqs[i]
		if err := r.Validate(); err != nil {
			return i, err
		}
		if r.Site >= len(e.cfg.Sites) {
			return i, fmt.Errorf("site %d out of range (%d sites)", r.Site, len(e.cfg.Sites))
		}
		if r.TSec < floor {
			return i, fmt.Errorf("t=%gs before earlier arrival t=%gs: %w", r.TSec, floor, ErrNonMonotonic)
		}
		if r.TSec < e.now {
			return i, fmt.Errorf("t=%gs before simulation time %gs: %w", r.TSec, e.now, ErrNonMonotonic)
		}
		floor = r.TSec
	}
	return len(reqs), nil
}

// Feed queues a batch of arrivals. Arrival times must be non-decreasing
// across all Feed calls and must not predate the current simulation time;
// violations return an error wrapping ErrNonMonotonic. The whole batch is
// checked first, so a rejected batch leaves the engine as it was.
//
// The engine keeps reqs itself, not a copy — several engines fed one trace
// share it — and reads it until the clock has passed its last arrival: the
// caller must not modify it before then.
func (e *Engine) Feed(reqs []Request) error {
	if n, err := e.checkArrivals(reqs, e.lastFed); err != nil {
		return fmt.Errorf("serve: request %d: %w", n, err)
	}
	if len(reqs) == 0 {
		return nil
	}
	e.lastFed = reqs[len(reqs)-1].TSec
	e.queue = append(e.queue, &fedBatch{reqs})
	// Every request fed can end as one latency sample: size the store once.
	e.latency.Reserve(len(reqs))
	return nil
}

// FeedFrom queues a source behind whatever is already queued. Its arrivals
// are held to the same contract as Feed's, run by run as they are pulled:
// the first violation ends the stream before that arrival is simulated and
// comes back from RunUntil.
func (e *Engine) FeedFrom(src Source) {
	e.queue = append(e.queue, src)
}

// pull makes the next run of arrivals current; false when there is none.
func (e *Engine) pull() bool {
	e.cur, e.pos = nil, 0
	for e.srcErr == nil && len(e.queue) > 0 {
		run := e.queue[0].Next()
		if len(run) == 0 {
			e.queue[0] = nil
			e.queue = e.queue[1:]
			continue
		}
		check := run
		if _, fed := e.queue[0].(*fedBatch); fed {
			// Feed checked the batch whole, so it is valid and sorted: its
			// first arrival passing the floor and the clock passes them all.
			check = run[:1]
		}
		n, err := e.checkArrivals(check, e.lastPull)
		if err != nil {
			e.srcErr = fmt.Errorf("serve: arrival %d: %w", e.offered+n, err)
		} else {
			n = len(run)
		}
		if n == 0 {
			return false
		}
		e.lastPull = run[n-1].TSec
		e.cur = run[:n]
		return true
	}
	return false
}

// RunUntil advances the simulation to tSec (inclusive of events at tSec),
// slice by slice with a refresh at each boundary. The error is the first
// bad arrival a source yielded, if any: the arrivals before it are
// simulated, it and everything queued behind it are not, and every later
// call reports it again.
func (e *Engine) RunUntil(tSec float64) error {
	for {
		next := float64(e.refreshN) * e.cfg.RefreshSec
		if next <= tSec {
			// Arrivals at exactly the first boundary land after that refresh
			// (its event predates every feed in the legacy order); later
			// boundaries are scheduled mid-run and lose the tie to arrivals.
			e.runSegment(next, e.refreshN == 1)
			e.now = next
			e.ring.Advance(next)
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
	return e.srcErr
}

// runSegment pulls and admits the arrivals up to hi, then advances the
// simulation to hi (inclusive).
func (e *Engine) runSegment(hi float64, excludeAtHi bool) {
	e.segGen++
	before := e.offered
	for e.pos < len(e.cur) || e.pull() {
		run := e.cur[e.pos:]
		n := 0
		for n < len(run) {
			t := run[n].TSec
			if t > hi || (excludeAtHi && t == hi) {
				break
			}
			n++
		}
		e.pos += n
		if e.local {
			e.arriveLocal(run[:n])
		} else {
			e.arriveGlobal(run[:n])
		}
		if n < len(run) {
			break
		}
	}
	if e.offered > before {
		e.slices++
	}
	if e.local {
		for s := range e.sats {
			e.drainSat(&e.sats[s], hi, true)
		}
		e.mergeSegment()
	} else {
		e.globalDrain(hi, true)
	}
}

// ---- slice-local policies: site memo + per-satellite heaps ----

// arriveLocal admits a run of the slice's arrivals in order, each against
// its site's memoized pick, advancing only the picked satellite's heap up
// to the arrival; every satellite catches up at the slice end (runSegment).
func (e *Engine) arriveLocal(run []Request) {
	for i := range run {
		r := &run[i]
		idx := e.offered
		e.offered++
		if e.siteGen[r.Site] != e.segGen {
			e.memoSite(r.Site, r.TSec)
		}
		pick := e.sitePick[r.Site]
		if pick < 0 {
			e.shedN[-pick-1]++
			continue
		}
		st := &e.sats[pick]
		e.drainSat(st, r.TSec, false)
		e.admit(&st.heap, &st.seq, idx, r, int(pick), e.sitePickD[r.Site])
	}
}

// memoSite resolves a site's slice pick. Slice-local picks ignore the clock
// and load signals, and re-pick their own previous choice, so one call
// stands in for every arrival the site gets this slice — including the
// legacy engine's mid-slice prev updates, which only ever install this same
// fixed point.
func (e *Engine) memoSite(site int, tArr float64) {
	cands := e.cands[site]
	var pick int32
	var d float64
	switch {
	case len(cands) == 0 && e.downOnly[site]:
		pick = -(1 + shedDown)
	case len(cands) == 0:
		pick = -(1 + shedNoCov)
	default:
		idx := e.policy.Pick(tArr, e.prevSat[site], cands, nil)
		if idx < 0 || idx >= len(cands) {
			pick = -(1 + shedRefuse)
		} else {
			pick = int32(cands[idx].SatID)
			d = cands[idx].OneWayMs / 1000
		}
	}
	e.sitePick[site] = pick
	e.sitePickD[site] = d
	e.siteGen[site] = e.segGen
}

// drainSat runs one satellite's events up to limit (exclusive before an
// arrival — arrivals win ties — inclusive at the slice end). Satellites
// interleave, so latency samples and queue-depth deltas are buffered under
// their (t, owner) key for mergeSegment.
func (e *Engine) drainSat(st *satShard, limit float64, inclusive bool) {
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
			ci, _ := e.pickCore(st)
			start := math.Max(ev.t, st.cores[ci])
			st.cores[ci] = start + rec.svc
			st.busySec += rec.svc
			if start > ev.t {
				e.segDeltas = append(e.segDeltas, mergeRec{t: ev.t, owner: rec.owner, v: 1})
				heapPush(&st.heap, satEvent{t: start, seq: st.seq, kind: evRelease, sat: ev.sat, ref: rec.owner})
				st.seq++
			}
			heapPush(&st.heap, satEvent{t: start + rec.svc, seq: st.seq, kind: evDone, sat: ev.sat, ref: ev.ref})
			st.seq++
		case evRelease:
			e.segDeltas = append(e.segDeltas, mergeRec{t: ev.t, owner: ev.ref, v: -1})
		case evDone:
			rec := st.slab[ev.ref]
			st.outstanding--
			e.inflight--
			e.served++
			e.segSamps = append(e.segSamps, mergeRec{t: ev.t, owner: rec.owner, v: (ev.t - rec.t + rec.d) * 1000})
			st.free = append(st.free, ev.ref)
		}
	}
}

// mergeSegment folds the slice's buffered streams into the engine in
// (t, owner) key order. The key is unique per record — one completion per
// request, and a request's queue entry and exit never coincide — so both
// sorts induce a total order.
func (e *Engine) mergeSegment() {
	sortRecs(e.segSamps, false)
	for _, s := range e.segSamps {
		e.observe(s.v)
	}
	e.segSamps = e.segSamps[:0]
	sortRecs(e.segDeltas, false)
	for _, d := range e.segDeltas {
		e.queueDelta(int(d.v))
	}
	e.segDeltas = e.segDeltas[:0]
}

// ---- load-coupled policies: one global heap ----

// arriveGlobal replays a run of the slice's arrivals in exact global
// (time, seq) order: what the legacy engine does, minus its per-event
// closure allocations.
func (e *Engine) arriveGlobal(run []Request) {
	for i := range run {
		r := &run[i]
		idx := e.offered
		e.offered++
		e.globalDrain(r.TSec, false)
		e.globalArrive(idx, r)
	}
}

func (e *Engine) globalArrive(idx int, r *Request) {
	site := r.Site
	cands := e.cands[site]
	if len(cands) == 0 {
		if e.downOnly[site] {
			e.shedN[shedDown]++
		} else {
			e.shedN[shedNoCov]++
		}
		return
	}
	pi := e.policy.Pick(r.TSec, e.prevSat[site], cands, e.freeAt)
	if pi < 0 || pi >= len(cands) {
		e.shedN[shedRefuse]++
		return
	}
	e.admit(&e.gheap, &e.gseq, idx, r, cands[pi].SatID, cands[pi].OneWayMs/1000)
}

// globalDrain is drainSat over the global heap: events already pop in
// global order, so samples and queue-depth changes apply at once instead
// of being buffered for mergeSegment.
func (e *Engine) globalDrain(limit float64, inclusive bool) {
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
			ci, rest := e.pickCore(st)
			start := math.Max(ev.t, st.cores[ci])
			st.cores[ci] = start + rec.svc
			e.freeAt[ev.sat] = min(rest, st.cores[ci])
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
			e.observe((ev.t - rec.t + rec.d) * 1000)
			st.free = append(st.free, ev.ref)
		}
	}
}

// ---- shared by both orders ----

// admit applies the satellite's queue bound to arrival idx and, if it fits,
// schedules its uplink on h (the satellite's heap or the global one, with
// that heap's sequence counter).
func (e *Engine) admit(h *[]satEvent, seq *uint32, idx int, r *Request, sat int, d float64) {
	st := &e.sats[sat]
	if e.queueCap >= 0 && st.outstanding >= e.coresPerSat+e.queueCap {
		e.shedN[shedQFull]++
		return
	}
	e.prevSat[r.Site] = sat
	st.outstanding++
	e.inflight++
	ref := st.allocRec(reqRec{t: r.TSec, d: d, svc: r.ServiceMs / 1000, owner: int32(idx)})
	heapPush(h, satEvent{t: r.TSec + d, seq: *seq, kind: evUplink, sat: int32(sat), ref: ref})
	*seq++
}

// pickCore returns the satellite's earliest-free core index (lowest index
// on ties, keeping runs deterministic) and the earliest free time among the
// other cores (+Inf with one core), so the global path's load book needs no
// second scan. rest is kept without a branch: min(rest, max(c, best)) is
// the old best when c takes its place and c otherwise. Busy-until times are
// never NaN and at least +0 (Request.Validate admits only finite arrivals
// at or after 0 and finite positive service times), and on such floats the
// order of the IEEE bits is the order of the values, so the scan compares
// integers: CMOVs, where Go's NaN-safe float min and max chain through each
// other across iterations.
func (e *Engine) pickCore(st *satShard) (int, float64) {
	if st.cores == nil {
		st.cores = make([]float64, e.coresPerSat)
	}
	cores := st.cores
	ci, best, rest := 0, math.Float64bits(cores[0]), math.Float64bits(math.Inf(1))
	for i := 1; i < len(cores); i++ {
		c := math.Float64bits(cores[i])
		rest = min(rest, max(c, best))
		if c < best {
			ci, best = i, c
		}
	}
	return ci, math.Float64frombits(rest)
}

func (e *Engine) queueDelta(d int) {
	e.nQueued += d
	if e.nQueued > e.peakQ {
		e.peakQ = e.nQueued
	}
}

// observe records a served request's end-to-end latency.
func (e *Engine) observe(ms float64) {
	e.latency.Add(ms)
	if e.m != nil {
		e.pendSamples = append(e.pendSamples, ms)
	}
}

// ---- reporting ----

// flushMetrics reconciles the obs registry with the engine's accounting at
// RunUntil boundaries — the points the flight recorder samples.
func (e *Engine) flushMetrics() {
	if e.m == nil {
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
	e.latQ.ObserveAll(e.pendSamples)
	e.pendSamples = e.pendSamples[:0]
	e.queueG.Set(float64(e.nQueued))
	e.inflightG.Set(float64(e.inflight))
}

// Stats reports the constants bench/workloads.go still reads; see
// EngineStats.
func (e *Engine) Stats() EngineStats {
	return EngineStats{Workers: 1, SerialSlices: e.slices}
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
