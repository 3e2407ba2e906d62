// Package fleet is the fleet-scale session orchestrator — the control
// plane of the in-orbit compute service. Where internal/meetup places one
// user group at a time with full per-group machinery, fleet places and
// migrates hundreds of thousands of concurrent sessions across the whole
// constellation under per-satellite capacity constraints:
//
//   - the spherical lat/lon-grid footprint index (visibility.Index) makes
//     reachable-set queries O(cells touched) instead of the O(N) scan of
//     visibility.Observer.Reachable, rebuilt once per epoch and shared by
//     every query of that epoch;
//   - an ID-ordered session table (Table) holds the session population in
//     one slab, so each epoch's detection is one walk over it that hands
//     admission its work already in session-ID order;
//   - an epoch-batched hand-off planner (Orchestrator) advances simulated
//     time in fixed steps, detects assignments about to lose visibility,
//     re-places them Sticky-style (longest remaining visibility within a
//     latency band) under load-aware admission, and costs every migration
//     over the ISL grid (internal/netgraph) with the live-migration model
//     (internal/migrate).
//
// Everything is deterministic under a fixed workload: parallel phases write
// to disjoint slots and all order-sensitive decisions happen in session-ID
// order.
package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/faults"
	"repro/internal/isl"
	"repro/internal/migrate"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/visibility"
)

// Config tunes the orchestrator. The zero value picks the defaults noted on
// each field.
type Config struct {
	// StepSec is the epoch length in simulated seconds (default 60). All
	// detection, placement, and migration work is batched per epoch.
	StepSec float64
	// LookaheadSec is the visibility lookahead horizon used to rank
	// candidates by remaining visibility and to answer TimeToExpiry
	// (default 1200, the meetup Sticky horizon). Must be at least StepSec.
	LookaheadSec float64
	// LatencyBand is the fractional latency slack over the per-session
	// optimum a candidate may have and still be preferred for longevity
	// (default 0.10, the paper's Sticky band).
	LatencyBand float64
	// PoolSize is how many longest-visible band candidates are tried
	// before admission falls back to the remaining candidates by latency
	// (default 5, the paper's Sticky pool).
	PoolSize int
	// CellDeg is the footprint-index cell size (default
	// visibility.DefaultCellDeg).
	CellDeg float64
	// ExpectedSessions sizes the session table for the intended population
	// (default 0 = modest). It is a hint: the orchestrator grows past it
	// without error.
	ExpectedSessions int
	// Workers bounds the parallelism of the proposal phase (default
	// par.Workers()). The planner's output is byte-identical for every
	// worker count.
	Workers int
	// Server is the per-satellite compute payload (default the paper's
	// reference server).
	Server compute.ServerSpec
	// ISLBandwidthGbps is the migration link rate (default isl.BandwidthGbps).
	ISLBandwidthGbps float64
	// DirtyRateMBps is how fast session state dirties during live
	// migration (default 4). Must stay below the link bandwidth.
	DirtyRateMBps float64
	// Registry receives the fleet_* metric families (default obs.Default()).
	Registry *obs.Registry
	// Faults injects satellite failures, ISL degradation, and migration
	// transfer failures (nil = fault-free). The orchestrator advances the
	// injector's clock on every Step; do not share one injector between
	// orchestrators.
	Faults *faults.Injector
	// RetryBaseSec and RetryCapSec bound the capped exponential backoff a
	// session waits after a failed migration transfer: attempt n retries
	// after min(RetryBaseSec·2ⁿ⁻¹, RetryCapSec). Defaults: StepSec and
	// 16·RetryBaseSec.
	RetryBaseSec, RetryCapSec float64
	// Ephem is the shared ephemeris engine backing the look-ahead ring. Pass
	// one to share propagated frames with other consumers of the same
	// constellation; nil builds a private one. Either way the ring
	// reserves its depth in the engine's frame store.
	Ephem *ephem.Engine
}

func (c Config) withDefaults() (Config, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"step", c.StepSec}, {"lookahead", c.LookaheadSec}, {"latency band", c.LatencyBand},
		{"cell size", c.CellDeg}, {"ISL bandwidth", c.ISLBandwidthGbps}, {"dirty rate", c.DirtyRateMBps},
		{"retry base", c.RetryBaseSec}, {"retry cap", c.RetryCapSec},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return c, fmt.Errorf("fleet: %s %v must be finite", f.name, f.v)
		}
	}
	if c.StepSec == 0 {
		c.StepSec = 60
	}
	if c.StepSec <= 0 {
		return c, fmt.Errorf("fleet: step %v must be positive", c.StepSec)
	}
	if c.LookaheadSec == 0 {
		c.LookaheadSec = 1200
	}
	if c.LookaheadSec < c.StepSec {
		return c, fmt.Errorf("fleet: lookahead %vs shorter than step %vs", c.LookaheadSec, c.StepSec)
	}
	if c.LatencyBand <= 0 {
		c.LatencyBand = 0.10
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 5
	}
	if c.Workers <= 0 {
		c.Workers = par.Workers()
	}
	if c.ExpectedSessions < 0 {
		return c, fmt.Errorf("fleet: expected sessions %d must be non-negative", c.ExpectedSessions)
	}
	if c.Server == (compute.ServerSpec{}) {
		c.Server = compute.DefaultServerSpec()
	}
	if err := c.Server.Validate(); err != nil {
		return c, err
	}
	if c.ISLBandwidthGbps == 0 {
		c.ISLBandwidthGbps = isl.BandwidthGbps
	}
	if c.ISLBandwidthGbps <= 0 {
		return c, fmt.Errorf("fleet: ISL bandwidth %v must be positive", c.ISLBandwidthGbps)
	}
	if c.DirtyRateMBps == 0 {
		c.DirtyRateMBps = 4
	}
	if c.DirtyRateMBps < 0 || c.DirtyRateMBps >= migrate.GbpsToMBps(c.ISLBandwidthGbps) {
		return c, fmt.Errorf("fleet: dirty rate %v MB/s must be in [0, link bandwidth)", c.DirtyRateMBps)
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.RetryBaseSec == 0 {
		c.RetryBaseSec = c.StepSec
	}
	if c.RetryBaseSec < 0 {
		return c, fmt.Errorf("fleet: retry base %v s must be positive", c.RetryBaseSec)
	}
	if c.RetryCapSec == 0 {
		c.RetryCapSec = 16 * c.RetryBaseSec
	}
	if c.RetryCapSec < c.RetryBaseSec {
		return c, fmt.Errorf("fleet: retry cap %v s below base %v s", c.RetryCapSec, c.RetryBaseSec)
	}
	return c, nil
}

// EpochReport summarises one planner epoch.
type EpochReport struct {
	// TSec is the simulated time the epoch ran at.
	TSec float64
	// Sessions and Assigned are the table population and assignment count
	// after the epoch.
	Sessions, Assigned int
	// Expiring is how many live assignments were about to lose full-group
	// visibility and entered re-placement.
	Expiring int
	// Placements counts initial admissions; Handoffs counts migrations;
	// Rejections counts sessions no visible satellite could fit;
	// Departures counts sessions removed at their end time.
	Placements, Handoffs, Rejections, Departures int
	// Transfer aggregates the one-way state-transfer latency (ms) of this
	// epoch's hand-offs; Downtime aggregates their live-migration downtime
	// (seconds).
	Transfer, Downtime stats.Summary
	// MeanUtilization is the mean core utilisation across all
	// satellite-servers after the epoch.
	MeanUtilization float64
	// WallSec is the measured wall-clock duration of the epoch
	// (non-deterministic; everything else in the report is deterministic
	// for a fixed workload).
	WallSec float64

	// SatFailures and SatRecoveries count the injected hard-fault events
	// consumed this epoch; DownSats is the failed-satellite count after it.
	SatFailures, SatRecoveries, DownSats int
	// Evacuations counts sessions successfully moved off a failed
	// satellite; EvacuationsDeferred counts evacuation attempts left
	// pending (transfer failure or no capacity — they retry later).
	Evacuations, EvacuationsDeferred int
	// MigrationFailures counts injected transfer failures this epoch;
	// BackoffDeferrals counts sessions skipped while waiting out their
	// retry backoff.
	MigrationFailures, BackoffDeferrals int
	// ISLDegradations counts hand-off transfers this epoch that found
	// their ISL path degraded and spilled to a ground relay.
	ISLDegradations int
}

// Orchestrator is the fleet-wide session control plane. Build with New,
// seed sessions with Submit, call Start once, then Step per epoch. Step is
// not safe to call concurrently with itself or with queries; Submit and
// table reads are safe from other goroutines between steps.
type Orchestrator struct {
	c    *constellation.Constellation
	obs  *visibility.Observer
	grid *isl.Grid
	idx  *visibility.Index
	tab  *Table
	cfg  Config
	// shellOrder lists the shells by ascending floor altitude; floorMs[i] is
	// a strict lower bound on any surface user's RTT to shell shellOrder[i].
	shellOrder []int
	floorMs    []float64

	// usedCores and usedMemGB are the capacity books, indexed by satellite
	// ID: what the sessions placed on each satellite-server hold.
	usedCores, usedMemGB []float64

	// ring is the look-ahead window over the ephemeris engine's frames: slot
	// k is the constellation at now + k·step, k in [0, K]. Built by Start.
	ring *visibility.Ring
	eng  *ephem.Engine
	now  float64

	// net is the groundless routing view of the constellation: the same
	// ISL grid as the planner, no ground nodes, so an SSSP over its frozen
	// CSR prices exactly the ISL-only transfer paths. nsnap is the current
	// epoch's snapshot.
	net   *netgraph.Network
	nsnap *netgraph.Snapshot

	started      bool
	nAssigned    int
	nEvacPending int // sessions off a failed satellite, not yet re-placed
	epochISL     int // ISL-degraded transfers seen this epoch (serial phase)
	m            *metricsSet

	tot totals       // cumulative decision counters backing Stats
	pl  plannerState // reusable per-epoch planner scratch (planner.go)
}

// New builds an orchestrator over the constellation. grid may be nil to
// build a +grid ISL topology; pass a shared one to avoid rebuilding.
func New(c *constellation.Constellation, grid *isl.Grid, cfg Config) (*Orchestrator, error) {
	if c == nil || c.Size() == 0 {
		return nil, fmt.Errorf("fleet: empty constellation")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	obsv := visibility.NewObserver(c)
	idx, err := visibility.NewIndex(obsv, cfg.CellDeg)
	if err != nil {
		return nil, err
	}
	if grid == nil {
		grid = isl.NewPlusGrid(c)
	}
	eng := cfg.Ephem
	if eng == nil {
		// Private engine: the look-ahead ring reserves its own depth.
		eng = ephem.New(c, ephem.Config{Workers: cfg.Workers, Registry: cfg.Registry})
	}
	net := netgraph.New(c, nil).UseEphemeris(eng)
	net.Grid = grid // route transfers over the planner's own topology
	o := &Orchestrator{
		c:         c,
		eng:       eng,
		obs:       obsv,
		grid:      grid,
		idx:       idx,
		tab:       NewTable(cfg.ExpectedSessions),
		cfg:       cfg,
		usedCores: make([]float64, c.Size()),
		usedMemGB: make([]float64, c.Size()),
		net:       net,
		m:         newMetrics(cfg.Registry),
	}
	// |p − u| ≥ |p| − |u| ≥ floor for u on the surface; 1−1e-9 absorbs rounding.
	for si := range c.Shells {
		o.shellOrder = append(o.shellOrder, si)
	}
	slices.SortStableFunc(o.shellOrder, func(a, b int) int { return cmp.Compare(idx.FloorKm(a), idx.FloorKm(b)) })
	for _, si := range o.shellOrder {
		o.floorMs = append(o.floorMs, units.RTTMs(idx.FloorKm(si))*(1-1e-9))
	}
	o.pl.init(o)
	return o, nil
}

// Table exposes the session table.
func (o *Orchestrator) Table() *Table { return o.tab }

// Constellation returns the underlying constellation.
func (o *Orchestrator) Constellation() *constellation.Constellation { return o.c }

// Ephemeris returns the engine backing the look-ahead ring (the configured
// shared engine, or the private one built by New).
func (o *Orchestrator) Ephemeris() *ephem.Engine { return o.eng }

// Now returns the current simulated time.
func (o *Orchestrator) Now() float64 { return o.now }

// Utilization returns the per-satellite core utilisation, indexed by
// satellite ID.
func (o *Orchestrator) Utilization() []float64 {
	out := make([]float64, len(o.usedCores))
	for i := range out {
		out[i] = o.utilization(i)
	}
	return out
}

// utilization is satellite id's used share of its effective cores.
func (o *Orchestrator) utilization(id int) float64 {
	return o.usedCores[id] / o.cfg.Server.EffectiveCores()
}

// fits reports whether the session fits in satellite id's spare capacity.
func (o *Orchestrator) fits(id int, s *Session) bool {
	return o.usedCores[id]+s.CoresDemand <= o.cfg.Server.EffectiveCores()+1e-9 &&
		o.usedMemGB[id]+s.MemoryGB <= float64(o.cfg.Server.MemoryGB)+1e-9
}

// debit books the session's demand on satellite id; credit returns it.
func (o *Orchestrator) debit(id int, s *Session) {
	o.usedCores[id] += s.CoresDemand
	o.usedMemGB[id] += s.MemoryGB
}

func (o *Orchestrator) credit(id int, s *Session) {
	o.usedCores[id] -= s.CoresDemand
	o.usedMemGB[id] -= s.MemoryGB
}

// Submit adds a session to the fleet; it is placed on the next Step.
func (o *Orchestrator) Submit(s *Session) error {
	if s == nil || len(s.Users) == 0 {
		return fmt.Errorf("fleet: submit of empty session")
	}
	if s.CoresDemand < 0 || s.MemoryGB < 0 || s.StateMB < 0 {
		return fmt.Errorf("fleet: session %d has negative demand", s.ID)
	}
	if err := o.tab.Put(s); err != nil {
		return err // a duplicate: the session is live here, its assignment stands
	}
	// The window is this orchestrator's grid and shells; the session may
	// have been through another's.
	s.Sat, s.win = -1, nil
	return nil
}

// SubmitBatch submits many sessions, stopping at the first error.
func (o *Orchestrator) SubmitBatch(ss []*Session) error {
	for _, s := range ss {
		if err := o.Submit(s); err != nil {
			return err
		}
	}
	return nil
}

// Remove drops a session immediately, releasing its capacity.
func (o *Orchestrator) Remove(id uint64) bool {
	s, ok := o.tab.Get(id)
	if !ok {
		return false
	}
	if s.Sat >= 0 {
		o.credit(s.Sat, s)
		s.Sat = -1
		o.nAssigned--
	}
	if s.Evacuating {
		s.Evacuating = false
		o.nEvacPending--
	}
	return o.tab.Delete(id)
}

// Start fixes the epoch clock at t0 and builds the look-ahead ring and
// footprint index. Call once before Step.
func (o *Orchestrator) Start(t0 float64) error {
	if o.started {
		return fmt.Errorf("fleet: already started")
	}
	k := int(math.Round(o.cfg.LookaheadSec / o.cfg.StepSec))
	o.ring = visibility.NewRing(o.obs, o.eng, t0, o.cfg.StepSec, k)
	if err := o.idx.Rebuild(o.ring.Frame(0)); err != nil {
		return fmt.Errorf("fleet: footprint index at t=%g: %w", t0, err)
	}
	if o.cfg.Faults != nil {
		// Bring the injector to t0; faults before the run started are not
		// this orchestrator's to handle.
		o.cfg.Faults.Advance(t0)
	}
	o.now = t0
	o.nsnap = o.net.At(t0)
	o.started = true
	return nil
}

// TimeToExpiry returns how long the session's current assignment stays
// visible to the whole group, at epoch granularity — the fleet-scale
// batched form of meetup.Planner.TimeToExpiry (capped=true when the
// assignment survives the whole lookahead ring).
func (o *Orchestrator) TimeToExpiry(s *Session) (warnSec float64, capped bool, err error) {
	if !o.started {
		return 0, false, fmt.Errorf("fleet: not started")
	}
	if s.Sat < 0 {
		return 0, false, fmt.Errorf("fleet: session %d is unassigned", s.ID)
	}
	life, k := o.ring.Life(s.Users, s.Sat), o.ring.K()
	if life < k {
		return float64(life+1) * o.cfg.StepSec, false, nil
	}
	return float64(k) * o.cfg.StepSec, true, nil
}

// candidate is one placement option for a session.
type candidate struct {
	id   int
	rtt  float64
	life int // remaining epochs of full-group visibility, capped at the ring's K
}

// satUp reports whether satellite id is serving (always true without an
// injector).
func (o *Orchestrator) satUp(id int) bool {
	return o.cfg.Faults == nil || o.cfg.Faults.SatUp(id)
}

// backoffSec is the capped exponential retry backoff after the n-th
// consecutive failed migration attempt (n >= 1).
func (o *Orchestrator) backoffSec(n int) float64 {
	d := o.cfg.RetryBaseSec * math.Pow(2, float64(n-1))
	if d > o.cfg.RetryCapSec {
		d = o.cfg.RetryCapSec
	}
	return d
}

// deferEvacuation records that a session off a failed satellite could not
// be re-placed this epoch and stays pending.
func (o *Orchestrator) deferEvacuation(s *Session, rep *EpochReport) {
	rep.EvacuationsDeferred++
	o.m.evacDeferred.Inc()
	if !s.Evacuating {
		s.Evacuating = true
		o.nEvacPending++
	}
}
