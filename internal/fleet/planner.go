package fleet

// The streaming epoch planner. One Step runs:
//
//	A0  fault events (serial)
//	A   detection: one walk over the table in session-ID order that lists
//	    the work and folds each mover's pricing radius (serial)
//	B/C streaming rounds over the work, one chunk at a time:
//	    admit chunk k serially while the workers propose chunk k+1
//	D   ring rotation, index rebuild, clock advance (serial)
//
// Every capacity decision is taken in one global session-ID order, so the
// planner's output is byte-identical for every Workers setting. Streaming
// in chunks keeps the per-epoch footprint at O(chunk · candidates) instead
// of materialising a proposal list for the whole work set — the difference
// between 100k and 1M+ sessions fitting the same epoch loop. Proposals may
// run a chunk ahead of admission because they read only what an epoch
// holds still — the ring, the index, the fault state, the session's own
// users — and never capacity or another session's assignment. A proposal
// stops at the first shell, by ascending floor, that cannot reach the Sticky
// band; admission scans a skipped shell only when its spill reaches that
// shell's floor, and by the same argument it picks what a full list would.
//
// Transfer pricing rides the frozen-CSR engine: the orchestrator takes a
// groundless netgraph snapshot each epoch and prices migrations off one
// SSSP row per source satellite, computed the first time a migration off
// that source reads it — a source none of whose movers migrates is never
// priced. A move costs min(ISL path, ground relay), and the relay is bounded
// by geometry the planner holds before any target is known: every target b
// is visible to the session's users, so |centroid − b| ≤ SpreadKm + the
// largest slant range of any shell. Detection folds each mover's bound
// (relayBoundMs) into a per-source pricing radius (srcState.radiusMs), and
// the row is a netgraph.LatenciesWithin run to that radius: a prefix of the
// full SSSP with bit-identical values, a dozen-odd settled nodes instead of
// a whole shell. A target missing from the row is farther than the radius,
// hence dearer than the relay, so min(row[b], relay) is the full row's
// answer.

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/migrate"
	"repro/internal/netgraph"
	"repro/internal/par"
	"repro/internal/units"
)

// streamChunk is how many sorted work items one streaming round proposes
// and admits. Large enough to amortise the fan-out, small enough that a
// round's proposal arenas stay cache-resident and that the last chunk's
// admission, which has no proposals left to overlap, is a small share of
// an epoch's.
const streamChunk = 2048

// proposeBlock is how many of a chunk's sessions a proposer claims at a
// time: a worker that shares its core with the admission phase falls
// behind, and must not be left holding half a chunk. It is also the grain
// of the index-scan timer: one clock pair a block, not one a session.
const proposeBlock = 64

// replanSample: fleet_replan_ms times the proposals of the sessions whose ID
// it divides, one in replanSample — deterministic, and it needs no seed.
const replanSample = 16

// proposal locates one session's candidates inside its block's arena:
// arena[lo:pool] is the ranked Sticky pool, best first, and arena[pool:hi]
// the spill candidates of the scanned shells in no order. The shells from
// shellOrder[next] on were not scanned: none can reach the band, whose
// latency bound the scan found.
type proposal struct {
	lo, pool, hi, next int32
	bound              float64
}

// chunkBuf holds one streaming round's proposals. props[i] is work item i's,
// inside arenas[i/proposeBlock]: a block is proposed by one goroutine into
// its own arena, so no arena is shared. scanSec[b] is block b's index-scan
// wall clock, and replanSec[i] work item i's proposal wall clock when the
// item is sampled. There are two, so that one can fill while the other is
// admitted.
type chunkBuf struct {
	props     []proposal
	arenas    [][]candidate
	scanSec   []float64
	replanSec []float64
}

// srcState is one source satellite's transfer-pricing state for the epoch.
type srcState struct {
	radiusMs float64 // upper bound on any relay price its movers can see; 0 when none
	// row is the priced row, a span of plannerState.rows; nil until computed
	// (a row always holds at least its source).
	row []netgraph.NodeMs
}

// plannerState is the orchestrator's reusable per-epoch scratch. Every
// slice is reset to length zero between epochs and grows to the workload's
// high-water mark once.
type plannerState struct {
	work     []*Session // the epoch's work list, ascending session ID
	gone     []*Session // the epoch's departures
	chunkLen int        // streamChunk, but for tests
	bufs     [2]chunkBuf
	lazy     []candidate       // admission's scratch for a skipped shell's candidates
	rows     []netgraph.NodeMs // the epoch's pricing rows, back to back

	// A chunk's admission probes, observed once the chunk is admitted.
	spillSec  float64   // wall clock of the skipped shells admission scanned
	spilled   bool      // whether admission scanned any skipped shell
	transfers []float64 // hand-off transfer prices, in admission order
	replanMs  []float64 // the sampled proposal latencies, in work order

	src      []srcState // per-satellite pricing state
	srcTouch []int32    // satellites with pending movers (reset list)
}

func (pl *plannerState) init(o *Orchestrator) {
	pl.chunkLen = streamChunk
	for b := range pl.bufs {
		pl.bufs[b] = chunkBuf{
			props:     make([]proposal, streamChunk),
			arenas:    make([][]candidate, streamChunk/proposeBlock),
			scanSec:   make([]float64, streamChunk/proposeBlock),
			replanSec: make([]float64, streamChunk),
		}
	}
	pl.src = make([]srcState, o.c.Size())
}

// reset clears the scratch for a new epoch, keeping every allocation.
func (pl *plannerState) reset() {
	pl.work, pl.gone, pl.rows = pl.work[:0], pl.gone[:0], pl.rows[:0]
	for _, sat := range pl.srcTouch {
		pl.src[sat] = srcState{}
	}
	pl.srcTouch = pl.srcTouch[:0]
}

// cmpByRTT orders candidates by latency, ties by ID — the spill order.
func cmpByRTT(a, b candidate) int {
	if a.rtt != b.rtt {
		if a.rtt < b.rtt {
			return -1
		}
		return 1
	}
	if a.id < b.id {
		return -1
	}
	if a.id > b.id {
		return 1
	}
	return 0
}

// cmpBand orders band candidates Sticky-style: longest remaining
// visibility first, then latency, then ID.
func cmpBand(a, b candidate) int {
	if a.life != b.life {
		if a.life > b.life {
			return -1
		}
		return 1
	}
	return cmpByRTT(a, b)
}

// rankForAdmission puts cands — band candidates first, their life filled
// in — into admission order in place and returns the pool size: the Sticky
// pool (the first PoolSize band candidates under cmpBand) ranked, then
// everything else in no order. Admission takes the first of the pool that
// fits, else the least under cmpByRTT that fits, and a minimum needs no
// order (pick).
func rankForAdmission(cands []candidate, band, poolSize int) int {
	slices.SortFunc(cands[:band], cmpBand)
	return min(band, poolSize)
}

// pick returns the first candidate in admission order that fits (id −1 when
// none does) and how many skipped shells it scanned. The order is the ranked
// pool, then by (rtt, id) the spill and the skipped shells, whose candidates
// scan(i) returns, each above the ascending floorsMs[i]. The first that fits
// in a sorted order is the least that fits; a shell whose floor it already
// undercuts cannot beat it, not even by a tie, so the scan stops there.
func pick(pool, spill []candidate, floorsMs []float64, scan func(i int) []candidate, fits func(id int) bool) (candidate, int) {
	for _, c := range pool {
		if fits(c.id) {
			return c, 0
		}
	}
	best := nearestFit(candidate{id: -1}, spill, fits)
	for i, floor := range floorsMs {
		if best.id >= 0 && best.rtt < floor {
			return best, i
		}
		best = nearestFit(best, scan(i), fits)
	}
	return best, len(floorsMs)
}

// nearestFit returns the least of best and the cands that fit, by cmpByRTT,
// reading capacity only for a candidate that would displace the best.
func nearestFit(best candidate, cands []candidate, fits func(id int) bool) candidate {
	for _, c := range cands {
		if (best.id < 0 || cmpByRTT(c, best) < 0) && fits(c.id) {
			best = c
		}
	}
	return best
}

// Step runs one planner epoch at the current simulated time: removes
// departed sessions, detects assignments about to lose visibility,
// re-places them (and places arrivals) under load-aware admission, costs
// the resulting migrations, then advances the clock by one step. The report
// is the epoch's only tally: publish turns it into the fleet_* series and
// the lifetime Stats, also when the epoch fails part-way.
func (o *Orchestrator) Step() (EpochReport, error) {
	if !o.started {
		return EpochReport{}, fmt.Errorf("fleet: Start must be called before Step")
	}
	wall := time.Now()
	rep := EpochReport{TSec: o.now}
	err := o.plan(&rep)
	rep.Sessions = o.tab.Len()
	rep.Assigned = o.nAssigned
	util := 0.0
	for id := range o.usedCores {
		util += o.utilization(id)
	}
	rep.MeanUtilization = util / float64(len(o.usedCores))
	rep.WallSec = time.Since(wall).Seconds()
	o.publish(rep)
	return rep, err
}

// plan runs the phases of one epoch, counting its decisions into rep.
func (o *Orchestrator) plan(rep *EpochReport) error {
	pl := &o.pl
	pl.reset()

	// Phase A0 — fault events: consume everything the injector fired up to
	// this epoch. Failed satellites are detected below; recovered ones are
	// simply eligible again.
	if f := o.cfg.Faults; f != nil {
		for _, ev := range f.Advance(o.now) {
			switch ev.Kind {
			case faults.SatFail:
				rep.SatFailures++
			case faults.SatRecover:
				rep.SatRecoveries++
			}
		}
		rep.DownSats = f.DownCount()
	}

	// The routing snapshot of this epoch. With no ground nodes the freeze is
	// a bare CSR assembly over the static ISL grid, deferred until the first
	// SSSP.
	o.nsnap = o.net.At(o.now)

	// Phase A — detection, one walk over the table's ID-ordered view: find
	// departures and sessions needing (re-)placement, widening each mover's
	// source pricing radius to cover its relay price. Sessions on a
	// hard-failed satellite evacuate immediately, ahead of their visibility
	// expiry; sessions inside a retry backoff window are deferred. The work
	// list is grown once to the most it can hold, not by repeated doubling.
	live := o.tab.Ordered()
	pl.work = slices.Grow(pl.work, len(live))
	for _, s := range live {
		switch {
		case s.ExpiresAt <= o.now:
			pl.gone = append(pl.gone, s)
			continue
		case s.Sat >= 0 && !o.satUp(s.Sat):
			// A dead satellite overrides any retry backoff: the session must
			// evacuate now, not when its timer says.
		case s.RetryAt > o.now:
			rep.BackoffDeferrals++
			continue
		case s.Sat >= 0 && o.ring.VisibleAll(s.Users, s.Sat, 1):
			continue // still in view next epoch: it stays
		}
		pl.work = append(pl.work, s)
		if s.Sat >= 0 {
			src := &pl.src[s.Sat]
			if src.radiusMs == 0 {
				pl.srcTouch = append(pl.srcTouch, int32(s.Sat))
			}
			src.radiusMs = max(src.radiusMs, o.relayBoundMs(s))
		}
	}

	// Departures leave before placement so their capacity frees this epoch.
	for _, s := range pl.gone {
		if s.Sat >= 0 {
			o.credit(s.Sat, s)
			s.Sat = -1
			o.nAssigned--
		}
		if s.Evacuating {
			s.Evacuating = false
			o.nEvacPending--
		}
		o.tab.Delete(s.ID)
		rep.Departures++
	}

	// Phases B/C — streaming rounds over the sorted work: admit chunk k
	// serially in session-ID order while the workers propose chunk k+1 into
	// the other buffer. Proposals never read capacity, so neither chunking
	// nor running ahead can change any admission decision. Every path out
	// of the loop joins the proposers it started (the last chunk's
	// successor is empty and proposed inline).
	chunkAt := func(k int) []*Session {
		lo := min(k*pl.chunkLen, len(pl.work))
		return pl.work[lo:min(lo+pl.chunkLen, len(pl.work))]
	}
	join := o.proposeAhead(&pl.bufs[0], chunkAt(0))
	for k := 0; k*pl.chunkLen < len(pl.work); k++ {
		chunk, buf := chunkAt(k), &pl.bufs[k&1]
		join()
		join = o.proposeAhead(&pl.bufs[(k+1)&1], chunkAt(k+1))
		o.m.streamChunks.Inc()
		err := o.admitChunk(chunk, buf, rep)
		o.observeChunk(chunk, buf)
		if err != nil {
			join()
			return err
		}
	}

	// Phase D — advance the epoch clock: rotate the ring, fetch the new
	// horizon snapshot from the ephemeris engine (every other ring frame
	// is a cache hit), re-bucket the index.
	o.now += o.cfg.StepSec
	o.ring.Advance(o.now)
	if err := o.idx.Rebuild(o.ring.Frame(0)); err != nil {
		return fmt.Errorf("fleet: footprint index at t=%g: %w", o.now, err)
	}
	return nil
}

// proposeAhead starts proposing chunk into buf and returns the call that
// waits for it. With one worker, or nothing to propose, it has already run
// on the caller's goroutine.
func (o *Orchestrator) proposeAhead(buf *chunkBuf, chunk []*Session) (join func()) {
	propose := func() {
		_ = par.Each(blocksOf(len(chunk)), o.cfg.Workers, func(b int) error {
			o.propose(buf, b, chunk[b*proposeBlock:min((b+1)*proposeBlock, len(chunk))])
			return nil
		})
	}
	if o.cfg.Workers == 1 || len(chunk) == 0 {
		propose()
		return func() {}
	}
	return par.Async(propose)
}

// blocksOf is how many proposer blocks a chunk of n work items makes.
func blocksOf(n int) int { return (n + proposeBlock - 1) / proposeBlock }

// observeChunk folds one admitted chunk's probes into the sketches: its
// blocks' index scans and its admission's spill scans as one more, its
// sampled proposal latencies, and its transfer prices in admission order.
// It runs on the caller's goroutine, so each series has one writer and a
// batch folds as a loop of Observe calls would.
func (o *Orchestrator) observeChunk(chunk []*Session, buf *chunkBuf) {
	pl := &o.pl
	o.m.indexQuery.ObserveAll(buf.scanSec[:blocksOf(len(chunk))])
	if pl.spilled {
		o.m.indexQuery.Observe(pl.spillSec)
	}
	pl.replanMs = pl.replanMs[:0]
	for i, s := range chunk {
		if s.ID%replanSample == 0 {
			pl.replanMs = append(pl.replanMs, buf.replanSec[i]*1e3)
		}
	}
	o.m.replanQ.ObserveAll(pl.replanMs)
	o.m.transferQ.ObserveAll(pl.transfers)
}

// admitChunk runs the serial admission phase over one streaming chunk and
// its proposals in buf: first candidate in admission order with spare
// capacity wins (pick), and the session is rejected (retrying next epoch)
// when nothing fits.
func (o *Orchestrator) admitChunk(chunk []*Session, buf *chunkBuf, rep *EpochReport) error {
	pl := &o.pl
	pl.spillSec, pl.spilled, pl.transfers = 0, false, pl.transfers[:0]
	for i, s := range chunk {
		// A held satellite that is down makes this an evacuation, one still
		// up an expiry, as detection found: the fault state holds still
		// through an epoch, and only this admission moves the session.
		evac := s.Evacuating || (s.Sat >= 0 && !o.satUp(s.Sat))
		if s.Sat >= 0 && !evac {
			rep.Expiring++
		}
		pr, arena := buf.props[i], buf.arenas[i/proposeBlock]
		skipped, t0 := o.shellOrder[pr.next:], time.Time{}
		chosen, scanned := pick(arena[pr.lo:pr.pool], arena[pr.pool:pr.hi], o.floorMs[pr.next:], func(k int) []candidate {
			if k == 0 {
				t0 = time.Now()
			}
			pl.lazy = o.scanShell(pl.lazy[:0], s, skipped[k])
			return pl.lazy
		}, func(id int) bool { return id == s.Sat || o.fits(id, s) })
		if scanned > 0 { // the chunk's index time includes its spill's scans
			pl.spillSec += time.Since(t0).Seconds()
			pl.spilled = true
			o.m.spillShells.Add(uint64(scanned))
		}
		if chosen.id < 0 {
			if s.Sat >= 0 {
				o.credit(s.Sat, s)
				s.Sat = -1
				o.nAssigned--
			}
			rep.Rejections++
			if evac {
				o.deferEvacuation(s, rep)
			}
			continue
		}
		if chosen.id == s.Sat {
			// Nothing better had room; hold the current satellite until it
			// actually sets. (A failed satellite is never ranked, so an
			// evacuating session cannot take this path.)
			s.RTTMs = chosen.rtt
			continue
		}
		if s.Sat >= 0 {
			from := s.Sat
			// An injected transfer failure aborts the migration before any
			// capacity moves: the session backs off and retries later,
			// holding its current satellite when that is still alive.
			if f := o.cfg.Faults; f != nil && !f.MigrationOK(s.ID, from, chosen.id, s.Retries) {
				rep.MigrationFailures++
				s.Retries++
				s.RetryAt = o.now + o.backoffSec(s.Retries)
				if evac {
					// The source is gone: the session rides out the backoff
					// unassigned (its state restores from the replicated
					// checkpoint on the next attempt).
					o.credit(from, s)
					s.Sat = -1
					o.nAssigned--
					o.deferEvacuation(s, rep)
				}
				continue
			}
			// Cost the move before any capacity moves, so that an error
			// leaves the books as they were.
			transfer := o.transferMs(from, chosen.id, s.Centroid, rep)
			res, merr := migrate.Live(
				migrate.State{SessionMB: s.StateMB, DirtyRateMBps: o.cfg.DirtyRateMBps},
				migrate.Link{BandwidthMBps: migrate.GbpsToMBps(o.cfg.ISLBandwidthGbps), OneWayMs: transfer},
			)
			if merr != nil {
				return fmt.Errorf("fleet: migration cost of session %d: %w", s.ID, merr)
			}
			o.debit(chosen.id, s)
			o.credit(from, s)
			rep.Handoffs++
			s.Handoffs++
			rep.Transfer.Add(transfer)
			rep.Downtime.Add(res.DowntimeSec)
			pl.transfers = append(pl.transfers, transfer)
		} else {
			// Unassigned (re-)placements restore from the pre-replicated
			// generic state plus checkpoint, so no transfer coin is flipped.
			o.debit(chosen.id, s)
			rep.Placements++
			o.nAssigned++
		}
		if evac {
			rep.Evacuations++
			if s.Evacuating {
				s.Evacuating = false
				o.nEvacPending--
			}
		}
		s.Sat = chosen.id
		s.PlacedAt = o.now
		s.RTTMs = chosen.rtt
		s.Retries, s.RetryAt = 0, 0
	}
	return nil
}

// propose fills block b of buf with the proposals of block, its sessions,
// in two passes: the index scans of every session, timed once for the
// block, then each session's band and rank. A session's candidates go to
// the block's arena in admission order — the Sticky pool (band candidates
// ranked by remaining visibility, the paper's stationarity objective)
// sorted, then the rest, unordered, for load spill. Sampled sessions time
// their share of both passes.
func (o *Orchestrator) propose(buf *chunkBuf, b int, block []*Session) {
	arena, props, lat := buf.arenas[b][:0], buf.props[b*proposeBlock:], buf.replanSec[b*proposeBlock:]
	t0 := time.Now()
	for i, s := range block {
		if s.ID%replanSample != 0 {
			arena, props[i] = o.scan(arena, s)
			continue
		}
		ts := time.Now()
		arena, props[i] = o.scan(arena, s)
		lat[i] = time.Since(ts).Seconds()
	}
	buf.scanSec[b] = time.Since(t0).Seconds()
	for i, s := range block {
		if s.ID%replanSample != 0 {
			o.rank(arena, s, &props[i])
			continue
		}
		ts := time.Now()
		o.rank(arena, s, &props[i])
		lat[i] += time.Since(ts).Seconds()
	}
	buf.arenas[b] = arena
}

// scan appends a session's candidates to arena and returns its proposal
// with the band's latency bound. It scans shells by ascending floor and
// stops at the first whose floor exceeds the bound (infinite while nothing
// is found): no candidate there or beyond can join the band or lower the
// optimum it is measured from.
func (o *Orchestrator) scan(arena []candidate, s *Session) ([]candidate, proposal) {
	if s.win == nil {
		s.win = o.idx.Window(s.Users)
	}
	pr := proposal{lo: int32(len(arena))}
	minRTT, bound := math.Inf(1), math.Inf(1)
	for ; int(pr.next) < len(o.shellOrder) && o.floorMs[pr.next] <= bound; pr.next++ {
		at := len(arena)
		arena = o.scanShell(arena, s, o.shellOrder[pr.next])
		for _, c := range arena[at:] {
			minRTT = min(minRTT, c.rtt)
		}
		bound = minRTT * (1 + o.cfg.LatencyBand)
	}
	pr.hi, pr.bound = int32(len(arena)), bound
	return arena, pr
}

// rank puts a scanned session's candidates in arena into admission order:
// the band — those within the bound — to the front with their remaining
// visibility, the pool of them ranked. Keeping the scanned list (not just
// the pool) is what lets admission spill under load instead of rejecting.
func (o *Orchestrator) rank(arena []candidate, s *Session, pr *proposal) {
	cands := arena[pr.lo:pr.hi]
	band := 0
	for i := range cands {
		if cands[i].rtt <= pr.bound {
			cands[band], cands[i] = cands[i], cands[band]
			band++
		}
	}
	for i := 0; i < band; i++ {
		cands[i].life = o.ring.Life(s.Users, cands[i].id)
	}
	pr.pool = pr.lo + int32(rankForAdmission(cands, band, o.cfg.PoolSize))
}

// scanShell appends every live satellite of shell si the whole group sees,
// at the group's RTT: it walks the session's cell box over contiguous CSR
// positions, testing every user's chord against the shell's one limit. sqrt
// and km→ms are monotone, so the worst squared range gives the group RTT.
//
// It is the planner's hottest loop, written as a register kernel that takes
// no branch on the geometry (DESIGN.md §6): a branch on whether this range
// is the group's worst, or beyond the limit, goes either way from one
// position to the next and mispredicts about as often.
//   - Component arithmetic, each product rounded by an explicit float64(...)
//     so that no platform fuses a multiply-add: the squared range is
//     Vec3.Dot's sum, in its order, bit for bit.
//   - The group's worst is a max over the ranges' IEEE bits, which order as
//     the values do for non-negative floats, so it is a conditional move; a
//     position is kept when that worst is within the limit, which is when no
//     user's range exceeds it.
//   - Every tested position is written to the arena, grown once per row, and
//     the length advances only past a kept one.
//   - The kept tail holds squared ranges until one pass turns them into RTTs.
func (o *Orchestrator) scanShell(arena []candidate, s *Session, si int) []candidate {
	ix, inj := o.idx, o.cfg.Faults
	sats, posCSR := ix.CSR()
	users, limit := s.Users, math.Float64bits(ix.Limit2(si))
	at := len(arena)
	for _, b := range ix.Halves(s.win[si]) {
		for r := b.RowLo; r <= b.RowHi; r++ {
			lo, hi := ix.RowSpan(si, b, r)
			n := len(arena)
			arena = slices.Grow(arena, int(hi-lo))[:n+int(hi-lo)]
			for k := lo; k < hi; k++ {
				px, py, pz := posCSR[k].X, posCSR[k].Y, posCSR[k].Z
				var worst uint64
				for j := range users {
					dx, dy, dz := px-users[j].X, py-users[j].Y, pz-users[j].Z
					worst = max(worst, math.Float64bits(float64(dx*dx)+float64(dy*dy)+float64(dz*dz)))
				}
				id := int(sats[k])
				arena[n] = candidate{id: id, rtt: math.Float64frombits(worst)}
				keep := worst <= limit
				if inj != nil && keep {
					keep = inj.SatUp(id) // hard-failed satellites take no placements
				}
				if keep {
					n++
				}
			}
			arena = arena[:n]
		}
	}
	kept := arena[at:]
	for i := range kept {
		kept[i].rtt = units.RTTMs(math.Sqrt(kept[i].rtt))
	}
	return arena
}

// relayBoundMs is an upper bound on the ground-relay price of any move the
// session can make off its current satellite this epoch: a target is
// visible to every user, so it lies within the group's spread plus the
// largest slant range of the centroid. The factor absorbs float rounding.
func (o *Orchestrator) relayBoundMs(s *Session) float64 {
	km := o.ring.Frame(0)[s.Sat].Distance(s.Centroid) + s.SpreadKm + o.idx.MaxSlantKm()
	return units.PropagationDelayMs(km) * (1 + 1e-9)
}

// transferMs is the one-way state-transfer latency from sat a to b at the
// current epoch: the cheaper of the shortest ISL path (same-shell pairs,
// read off the source's pricing row, which the first read computes) and a
// ground relay through the session's region — the same accounting as
// meetup.Planner.TransferLatencyMs. A flapped ISL counts in rep.
func (o *Orchestrator) transferMs(a, b int, centroid geo.Vec3, rep *EpochReport) float64 {
	snap := o.ring.Frame(0)
	relay := units.PropagationDelayMs(snap[a].Distance(centroid) + centroid.Distance(snap[b]))
	if o.c.Satellites[a].ShellIndex != o.c.Satellites[b].ShellIndex {
		return relay // the +grid does not link shells
	}
	if f := o.cfg.Faults; f != nil && f.ISLDegraded(a, b, o.now) {
		rep.ISLDegradations++
		return relay // flapped path: spill the transfer to the ground relay
	}
	pl, src := &o.pl, &o.pl.src[a]
	if src.row == nil {
		lo := len(pl.rows)
		pl.rows = o.nsnap.LatenciesWithin(netgraph.NodeID(a), src.radiusMs, pl.rows)
		src.row = pl.rows[lo:]
		o.m.ssspLazy.Inc()
	}
	// A target beyond the pricing radius or unreachable is not in the row,
	// and the relay wins — as it would against the full row's value.
	for _, nm := range src.row {
		if int(nm.Node) == b {
			return math.Min(nm.Ms, relay)
		}
	}
	return relay
}
