package serve

// The original single-threaded netsim-backed serving engine, kept as the
// differential oracle for the slab-backed Engine: every (constellation, config,
// trace) must produce identical results on both. It schedules one netsim
// event per request arrival and replays the whole run through the kernel's
// global (time, seq) heap — simple, slow, and by construction the reference
// semantics the Engine's slice replay must reproduce.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/netgraph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/units"
)

type legacyEngine struct {
	cfg    Config
	sim    *netsim.Sim
	net    *netgraph.Network
	policy Policy

	coresPerSat int
	queueCap    int // -1 = unbounded

	// ring holds snapshots at now, now+refresh, ..., now+lookahead*refresh;
	// rotated one slot per refresh so steady state freezes one new graph.
	ring []*netgraph.Snapshot

	cands    [][]Candidate // per site, rebuilt each refresh
	downOnly []bool        // per site: visible sats exist but all are down
	prevSat  []int         // per site: satellite that served the last request

	cores       [][]float64 // per sat: busy-until per core (lazy)
	outstanding []int       // per sat: admitted, not completed
	busySec     []float64   // per sat: accumulated service seconds

	offered  int
	served   int
	inflight int
	shed     map[ShedReason]int
	latency  *stats.CDF
	nQueued  int
	peakQ    int

	m         *metricsSet
	reqC      *obs.Counter
	servedC   *obs.Counter
	shedC     map[ShedReason]*obs.Counter
	latQ      *obs.Quantile
	queueG    *obs.Gauge
	inflightG *obs.Gauge
}

// newLegacyEngine builds the oracle engine; same contract as NewEngine.
func newLegacyEngine(c *constellation.Constellation, cfg Config) (*legacyEngine, error) {
	cfg = cfg.withDefaults()
	if c == nil {
		return nil, fmt.Errorf("serve: nil constellation")
	}
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("serve: no sites")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("serve: nil policy")
	}
	if err := cfg.Server.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.Faults != nil && cfg.Faults.N() != c.Size() {
		return nil, fmt.Errorf("serve: fault injector sized for %d sats, constellation has %d",
			cfg.Faults.N(), c.Size())
	}
	e := &legacyEngine{
		cfg:         cfg,
		sim:         netsim.New(),
		policy:      cfg.Policy,
		coresPerSat: int(math.Max(1, math.Floor(cfg.Server.EffectiveCores()))),
		queueCap:    cfg.QueueCap,
		cands:       make([][]Candidate, len(cfg.Sites)),
		downOnly:    make([]bool, len(cfg.Sites)),
		prevSat:     make([]int, len(cfg.Sites)),
		cores:       make([][]float64, c.Size()),
		outstanding: make([]int, c.Size()),
		busySec:     make([]float64, c.Size()),
		shed:        make(map[ShedReason]int),
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
	}
	e.refresh(0)
	e.scheduleRefresh(cfg.RefreshSec)
	return e, nil
}

func (e *legacyEngine) scheduleRefresh(t float64) {
	// The chain is infinite by design; Run stops at its horizon, so the
	// one pending refresh beyond it is harmless.
	if err := e.sim.Schedule(t, func() {
		e.refresh(t)
		e.scheduleRefresh(t + e.cfg.RefreshSec)
	}); err != nil {
		panic(fmt.Sprintf("serve: refresh schedule: %v", err))
	}
}

// refresh rebuilds fault state, the snapshot ring, and per-site candidate
// lists at time t.
func (e *legacyEngine) refresh(t float64) {
	if e.cfg.Faults != nil {
		e.cfg.Faults.Advance(t)
	}
	step := e.cfg.RefreshSec
	depth := e.cfg.LookaheadEpochs + 1
	if len(e.ring) == 0 {
		e.ring = make([]*netgraph.Snapshot, depth)
		for k := range e.ring {
			e.ring[k] = e.net.At(t + float64(k)*step)
		}
	} else {
		copy(e.ring, e.ring[1:])
		e.ring[depth-1] = e.net.At(t + float64(depth-1)*step)
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

// containsSorted reports whether sorted ascending xs contains v.
func containsSorted(xs []int, v int) bool {
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}

// Feed schedules requests into the simulation. Requests must not predate
// the current simulation time; multiple Feeds accumulate.
func (e *legacyEngine) Feed(reqs []Request) error {
	for i := range reqs {
		r := reqs[i]
		if err := r.Validate(); err != nil {
			return fmt.Errorf("serve: request %d: %w", i, err)
		}
		if r.Site >= len(e.cfg.Sites) {
			return fmt.Errorf("serve: request %d: site %d out of range (%d sites)",
				i, r.Site, len(e.cfg.Sites))
		}
		req := r
		if err := e.sim.Schedule(r.TSec, func() { e.arrive(req) }); err != nil {
			return fmt.Errorf("serve: request %d: %w", i, err)
		}
	}
	return nil
}

// RunUntil advances the simulation to tSec (inclusive of events at tSec).
func (e *legacyEngine) RunUntil(tSec float64) {
	e.sim.Run(tSec)
}

// Now returns the engine's simulation time.
func (e *legacyEngine) Now() float64 { return e.sim.Now() }

func (e *legacyEngine) arrive(r Request) {
	now := e.sim.Now()
	e.offered++
	if e.reqC != nil {
		e.reqC.Inc()
	}
	cands := e.cands[r.Site]
	if len(cands) == 0 {
		if e.downOnly[r.Site] {
			e.reject(ShedSatDown)
		} else {
			e.reject(ShedNoCoverage)
		}
		return
	}
	for i := range cands {
		cands[i].FreeAtSec = e.earliestFree(cands[i].SatID)
	}
	idx := e.policy.Pick(now, e.prevSat[r.Site], cands)
	if idx < 0 || idx >= len(cands) {
		e.reject(ShedRefused)
		return
	}
	sat := cands[idx].SatID
	if e.queueCap >= 0 && e.outstanding[sat] >= e.coresPerSat+e.queueCap {
		e.reject(ShedQueueFull)
		return
	}
	e.prevSat[r.Site] = sat
	e.outstanding[sat]++
	e.inflight++
	if e.inflightG != nil {
		e.inflightG.Set(float64(e.inflight))
	}
	oneWaySec := cands[idx].OneWayMs / 1000
	svcSec := r.ServiceMs / 1000
	arrival := now
	// Uplink, then a core: queue depth covers the wait between reaching
	// the satellite and service start.
	e.mustAfter(oneWaySec, func() {
		up := e.sim.Now()
		ci := e.pickCore(sat)
		start := math.Max(up, e.cores[sat][ci])
		e.cores[sat][ci] = start + svcSec
		e.busySec[sat] += svcSec
		if start > up {
			e.queueDelta(+1)
			e.mustAt(start, func() { e.queueDelta(-1) })
		}
		e.mustAt(start+svcSec, func() {
			e.outstanding[sat]--
			e.inflight--
			e.served++
			respMs := (e.sim.Now() - arrival + oneWaySec) * 1000
			e.latency.Add(respMs)
			if e.servedC != nil {
				e.servedC.Inc()
				e.latQ.Observe(respMs)
				e.inflightG.Set(float64(e.inflight))
			}
		})
	})
}

func (e *legacyEngine) queueDelta(d int) {
	e.nQueued += d
	if e.nQueued > e.peakQ {
		e.peakQ = e.nQueued
	}
	if e.queueG != nil {
		e.queueG.Set(float64(e.nQueued))
	}
}

func (e *legacyEngine) reject(reason ShedReason) {
	e.shed[reason]++
	if e.shedC != nil {
		e.shedC[reason].Inc()
	}
}

// pickCore returns the satellite's earliest-free core index (lowest index
// on ties, keeping runs deterministic).
func (e *legacyEngine) pickCore(sat int) int {
	if e.cores[sat] == nil {
		e.cores[sat] = make([]float64, e.coresPerSat)
	}
	ci, best := 0, e.cores[sat][0]
	for i := 1; i < len(e.cores[sat]); i++ {
		if e.cores[sat][i] < best {
			best = e.cores[sat][i]
			ci = i
		}
	}
	return ci
}

func (e *legacyEngine) earliestFree(sat int) float64 {
	if e.cores[sat] == nil {
		return 0
	}
	best := e.cores[sat][0]
	for _, b := range e.cores[sat][1:] {
		if b < best {
			best = b
		}
	}
	return best
}

func (e *legacyEngine) mustAfter(d float64, fn func()) {
	if err := e.sim.ScheduleAfter(d, fn); err != nil {
		panic(fmt.Sprintf("serve: schedule: %v", err))
	}
}

func (e *legacyEngine) mustAt(t float64, fn func()) {
	if err := e.sim.Schedule(t, fn); err != nil {
		panic(fmt.Sprintf("serve: schedule: %v", err))
	}
}

// Result snapshots the engine's accounting at the current simulation time.
func (e *legacyEngine) Result() Result {
	shed := make(map[ShedReason]int, len(e.shed))
	for k, v := range e.shed {
		shed[k] = v
	}
	util := make([]float64, len(e.busySec))
	if now := e.sim.Now(); now > 0 {
		denom := now * float64(e.coresPerSat)
		for i, b := range e.busySec {
			util[i] = b / denom
		}
	}
	used := 0
	for _, b := range e.busySec {
		if b > 0 {
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
