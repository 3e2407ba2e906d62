package fleet

// The streaming epoch planner. One Step runs:
//
//	A0  fault events (serial)
//	A   detection over ID ranges of the table (parallel, one slot per range)
//	A2  gather the slots in session-ID order, fold pricing radii (serial)
//	A3  batched SSSP transfer pricing over the epoch's source satellites
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
// SSSP row per source satellite — computed up front through internal/par
// when the source has several pending moves, lazily on first use otherwise.
// A move costs min(ISL path, ground relay), and the relay is bounded by
// geometry the planner holds before any target is known: every target b is
// visible to the session's users, so |centroid − b| ≤ SpreadKm + the largest
// slant range of any shell. Detection bounds each mover (workItem.boundMs),
// phase A2 folds the bounds into a per-source pricing radius
// (srcState.radiusMs), and the row is a netgraph.LatenciesWithin run to that
// radius: a prefix of the full SSSP with bit-identical values, a dozen-odd
// settled nodes instead of a whole shell. A target missing from the row is
// farther than the radius, hence dearer than the relay, so min(row[b], relay)
// is the full row's answer.

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
// behind, and must not be left holding half a chunk.
const proposeBlock = 64

// batchMinWork is the pending-move count at which a source satellite's
// SSSP row joins the parallel batch; sources below it are priced lazily,
// one row on first use, since a rejected or holding session may never need
// its row at all.
const batchMinWork = 2

// proposal locates one session's candidates inside its block's arena:
// arena[lo:pool] is the ranked Sticky pool, best first, and arena[pool:hi]
// the spill candidates of the scanned shells in no order. The shells from
// shellOrder[next] on were not scanned: none can reach the band.
type proposal struct {
	lo, pool, hi, next int32
	scanSec, latSec    float64 // wall clock of the index scans and of the whole proposal
}

// chunkBuf holds one streaming round's proposals. props[i] is work item i's,
// inside arenas[i/proposeBlock]: a block is proposed by one goroutine into
// its own arena, so no arena is shared. There are two, so that one can fill
// while the other is admitted.
type chunkBuf struct {
	props  []proposal
	arenas [][]candidate
}

// srcState is one source satellite's transfer-pricing state for the epoch.
type srcState struct {
	movers   int32   // pending re-placements off this satellite
	radiusMs float64 // upper bound on any relay price those moves can see
	// row is the priced row, a span of the computing worker's rows list; nil
	// until computed (a row always holds at least its source).
	row []netgraph.NodeMs
}

// plannerState is the orchestrator's reusable per-epoch scratch. Every
// slice is reset to length zero between epochs and grows to the workload's
// high-water mark once.
type plannerState struct {
	// Detection's output per worker, each in ascending session ID.
	workBy  [][]workItem
	goneBy  [][]*Session
	deferBy []int

	work     []workItem // the epoch's work list, ascending session ID
	chunkLen int        // streamChunk, but for tests
	bufs     [2]chunkBuf
	lazy     []candidate         // admission's scratch for a skipped shell's candidates
	rows     [][]netgraph.NodeMs // per worker: the epoch's pricing rows it computed, back to back

	src      []srcState // per-satellite pricing state
	srcTouch []int32    // satellites with pending movers (reset list)
	batch    []int32    // sources priced up front, ascending
}

func (pl *plannerState) init(o *Orchestrator) {
	pl.workBy = make([][]workItem, o.cfg.Workers)
	pl.goneBy = make([][]*Session, o.cfg.Workers)
	pl.deferBy = make([]int, o.cfg.Workers)
	pl.chunkLen = streamChunk
	for b := range pl.bufs {
		pl.bufs[b] = chunkBuf{make([]proposal, streamChunk), make([][]candidate, streamChunk/proposeBlock)}
	}
	pl.rows = make([][]netgraph.NodeMs, o.cfg.Workers)
	pl.src = make([]srcState, o.c.Size())
}

// reset clears the scratch for a new epoch, keeping every allocation.
func (pl *plannerState) reset() {
	for w := range pl.workBy {
		pl.workBy[w], pl.goneBy[w], pl.deferBy[w] = pl.workBy[w][:0], pl.goneBy[w][:0], 0
	}
	pl.work = pl.work[:0]
	for _, sat := range pl.srcTouch {
		pl.src[sat] = srcState{}
	}
	pl.srcTouch = pl.srcTouch[:0]
	pl.batch = pl.batch[:0]
	for w := range pl.rows {
		pl.rows[w] = pl.rows[w][:0]
	}
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
// the resulting migrations, then advances the clock by one step.
func (o *Orchestrator) Step() (EpochReport, error) {
	if !o.started {
		return EpochReport{}, fmt.Errorf("fleet: Start must be called before Step")
	}
	wall := time.Now()
	rep := EpochReport{TSec: o.now}
	o.epochISL = 0
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
				o.m.faultSatFail.Inc()
			case faults.SatRecover:
				rep.SatRecoveries++
				o.m.faultSatRec.Inc()
			}
		}
		rep.DownSats = f.DownCount()
	}

	// The routing snapshot of this epoch. With no ground nodes the freeze is
	// a bare CSR assembly over the static ISL grid, deferred until the first
	// SSSP.
	o.nsnap = o.net.At(o.now)

	// Phase A — detection, parallel over contiguous ranges of the table's
	// ID-ordered view: find departures and sessions needing (re-)placement,
	// bounding each mover's relay price. Sessions on a hard-failed satellite
	// evacuate immediately, ahead of their visibility expiry; sessions inside
	// a retry backoff window are deferred. Work lists are grown once to the
	// most they can hold, not by repeated doubling.
	live := o.tab.Ordered()
	par.Chunks(len(live), o.cfg.Workers, func(w, lo, hi int) {
		work, gone, deferred := slices.Grow(pl.workBy[w], hi-lo), pl.goneBy[w], 0
		for _, s := range live[lo:hi] {
			switch {
			case s.ExpiresAt <= o.now:
				gone = append(gone, s)
			case s.Sat >= 0 && !o.satUp(s.Sat):
				// A dead satellite overrides any retry backoff: the session
				// must evacuate now, not when its timer says.
				work = append(work, workItem{s, o.relayBoundMs(s)})
			case s.RetryAt > o.now:
				deferred++
			case s.Sat < 0:
				work = append(work, workItem{s, 0})
			case !o.ring.VisibleAll(s.Users, s.Sat, 1):
				work = append(work, workItem{s, o.relayBoundMs(s)})
			}
		}
		pl.workBy[w], pl.goneBy[w], pl.deferBy[w] = work, gone, deferred
	})
	for _, n := range pl.deferBy {
		rep.BackoffDeferrals += n
	}
	o.m.retryDeferred.Add(uint64(rep.BackoffDeferrals))

	// Departures leave before placement so their capacity frees this epoch.
	for _, gone := range pl.goneBy {
		for _, s := range gone {
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
	}
	o.m.departures.Add(uint64(rep.Departures))

	// Phase A2 — gather the work in slot order, which is session-ID order,
	// counting pending moves per source satellite and widening its pricing
	// radius to cover each.
	pl.work = slices.Grow(pl.work, len(live))
	for _, work := range pl.workBy {
		pl.work = append(pl.work, work...)
	}
	for _, w := range pl.work {
		if sat := w.sess.Sat; sat >= 0 {
			src := &pl.src[sat]
			if src.movers == 0 {
				pl.srcTouch = append(pl.srcTouch, int32(sat))
			}
			src.movers++
			src.radiusMs = max(src.radiusMs, w.boundMs)
		}
	}

	// Phase A3 — batched transfer pricing: every source satellite with
	// several pending moves gets its row up front, fanned out over the
	// workers; stragglers fill in lazily inside admission.
	slices.Sort(pl.srcTouch)
	for _, sat := range pl.srcTouch {
		if pl.src[sat].movers >= batchMinWork {
			pl.batch = append(pl.batch, sat)
		}
	}
	par.Chunks(len(pl.batch), o.cfg.Workers, func(w, lo, hi int) {
		for _, sat := range pl.batch[lo:hi] {
			o.priceRow(w, int(sat))
		}
	})
	o.m.ssspBatched.Add(uint64(len(pl.batch)))

	// Phases B/C — streaming rounds over the sorted work: admit chunk k
	// serially in session-ID order while the workers propose chunk k+1 into
	// the other buffer. Proposals never read capacity, so neither chunking
	// nor running ahead can change any admission decision. Every path out
	// of the loop joins the proposers it started (the last chunk's
	// successor is empty and proposed inline).
	chunkAt := func(k int) []workItem {
		lo := min(k*pl.chunkLen, len(pl.work))
		return pl.work[lo:min(lo+pl.chunkLen, len(pl.work))]
	}
	join := o.proposeAhead(&pl.bufs[0], chunkAt(0))
	for k := 0; k*pl.chunkLen < len(pl.work); k++ {
		chunk, buf := chunkAt(k), &pl.bufs[k&1]
		join()
		join = o.proposeAhead(&pl.bufs[(k+1)&1], chunkAt(k+1))
		o.m.streamChunks.Inc()
		if err := o.admitChunk(chunk, buf, &rep); err != nil {
			join()
			return rep, err
		}
		// Observed here, not by the proposers: one goroutine per series.
		for _, pr := range buf.props[:len(chunk)] {
			o.m.indexQuery.Observe(pr.scanSec)
			o.m.placeLat.Observe(pr.latSec)
			o.m.replanQ.Observe(pr.latSec * 1e3)
		}
	}
	o.m.rejections.Add(uint64(rep.Rejections))

	// Phase D — advance the epoch clock: rotate the ring, fetch the new
	// horizon snapshot from the ephemeris engine (every other ring frame
	// is a cache hit), re-bucket the index.
	o.now += o.cfg.StepSec
	o.ring.Advance(o.now)
	if err := o.idx.Rebuild(o.ring.Frame(0)); err != nil {
		return rep, fmt.Errorf("fleet: footprint index at t=%g: %w", o.now, err)
	}

	rep.Sessions = o.tab.Len()
	rep.Assigned = o.nAssigned
	util := 0.0
	for id := range o.usedCores {
		util += o.utilization(id)
	}
	rep.MeanUtilization = util / float64(len(o.usedCores))
	rep.ISLDegradations = o.epochISL
	rep.WallSec = time.Since(wall).Seconds()

	o.tot.fold(rep)
	o.m.sessions.Set(float64(rep.Sessions))
	o.m.assigned.Set(float64(rep.Assigned))
	o.m.downSats.Set(float64(rep.DownSats))
	o.m.evacPending.Set(float64(o.nEvacPending))
	o.m.epochs.Inc()
	o.m.epochSec.Observe(rep.WallSec)
	return rep, nil
}

// proposeAhead starts proposing chunk into buf and returns the call that
// waits for it. With one worker, or nothing to propose, it has already run
// on the caller's goroutine.
func (o *Orchestrator) proposeAhead(buf *chunkBuf, chunk []workItem) (join func()) {
	propose := func() {
		blocks := (len(chunk) + proposeBlock - 1) / proposeBlock
		_ = par.Each(blocks, o.cfg.Workers, func(b int) error {
			arena := buf.arenas[b][:0]
			for i := b * proposeBlock; i < min((b+1)*proposeBlock, len(chunk)); i++ {
				arena, buf.props[i] = o.propose(arena, chunk[i].sess)
			}
			buf.arenas[b] = arena
			return nil
		})
	}
	if o.cfg.Workers == 1 || len(chunk) == 0 {
		propose()
		return func() {}
	}
	return par.Async(propose)
}

// admitChunk runs the serial admission phase over one streaming chunk and
// its proposals in buf: first candidate in admission order with spare
// capacity wins (pick), and the session is rejected (retrying next epoch)
// when nothing fits.
func (o *Orchestrator) admitChunk(chunk []workItem, buf *chunkBuf, rep *EpochReport) error {
	for i, w := range chunk {
		s := w.sess
		// A held satellite that is down makes this an evacuation, one still
		// up an expiry, as detection found: the fault state holds still
		// through an epoch, and only this admission moves the session.
		evac := s.Evacuating || (s.Sat >= 0 && !o.satUp(s.Sat))
		if s.Sat >= 0 && !evac {
			rep.Expiring++
		}
		if s.Retries > 0 {
			o.m.migRetries.Inc()
		}
		pr, arena := buf.props[i], buf.arenas[i/proposeBlock]
		skipped, t0 := o.shellOrder[pr.next:], time.Time{}
		chosen, scanned := pick(arena[pr.lo:pr.pool], arena[pr.pool:pr.hi], o.floorMs[pr.next:], func(k int) []candidate {
			if k == 0 {
				t0 = time.Now()
			}
			o.pl.lazy = o.scanShell(o.pl.lazy[:0], s, skipped[k])
			return o.pl.lazy
		}, func(id int) bool { return id == s.Sat || o.fits(id, s) })
		if scanned > 0 { // the session's index time includes its spill's scans
			buf.props[i].scanSec += time.Since(t0).Seconds()
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
				o.m.faultMig.Inc()
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
			transfer := o.transferMs(from, chosen.id, s.Centroid)
			res, merr := migrate.Live(
				migrate.State{SessionMB: s.StateMB, DirtyRateMBps: o.cfg.DirtyRateMBps},
				migrate.Link{BandwidthMBps: migrate.GbpsToMBps(o.cfg.ISLBandwidthGbps), OneWayMs: transfer},
				migrate.LiveConfig{GenericReplicatedAhead: true},
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
			o.m.transferMs.Observe(transfer)
			o.m.transferQ.Observe(transfer)
			o.m.handoffs.Inc()
			o.m.placeHandoff.Inc()
		} else {
			// Unassigned (re-)placements restore from the pre-replicated
			// generic state plus checkpoint, so no transfer coin is flipped.
			o.debit(chosen.id, s)
			rep.Placements++
			o.nAssigned++
			o.m.placeInitial.Inc()
		}
		if evac {
			rep.Evacuations++
			o.m.evacOK.Inc()
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

// propose appends a session's candidates to arena in admission order — the
// Sticky pool (band candidates ranked by remaining visibility, the paper's
// stationarity objective) sorted, then the rest, unordered, for load spill.
// It scans shells by ascending floor and stops at the first whose floor
// exceeds the band's bound (infinite while nothing is found): no candidate
// there or beyond can join the band or lower the optimum it is measured from.
func (o *Orchestrator) propose(arena []candidate, s *Session) ([]candidate, proposal) {
	t0 := time.Now()
	lo := len(arena)
	if s.win == nil {
		s.win = o.idx.Window(s.Users)
	}
	pr := proposal{lo: int32(lo)}
	minRTT, bound := math.Inf(1), math.Inf(1)
	for ; int(pr.next) < len(o.shellOrder) && o.floorMs[pr.next] <= bound; pr.next++ {
		at := len(arena)
		arena = o.scanShell(arena, s, o.shellOrder[pr.next])
		for _, c := range arena[at:] {
			minRTT = min(minRTT, c.rtt)
		}
		bound = minRTT * (1 + o.cfg.LatencyBand)
	}
	pr.hi, pr.scanSec = int32(len(arena)), time.Since(t0).Seconds()
	cands := arena[lo:]
	if len(cands) == 0 {
		pr.pool, pr.latSec = pr.lo, pr.scanSec
		return arena, pr
	}
	band := 0
	for i := range cands {
		if cands[i].rtt <= bound {
			cands[band], cands[i] = cands[i], cands[band]
			band++
		}
	}
	for i := 0; i < band; i++ {
		cands[i].life = o.ring.Life(s.Users, cands[i].id)
	}
	// Keeping the scanned list (not just the pool) is what lets admission
	// spill under load instead of rejecting.
	pr.pool = pr.lo + int32(rankForAdmission(cands, band, o.cfg.PoolSize))
	pr.latSec = time.Since(t0).Seconds()
	return arena, pr
}

// scanShell appends every live satellite of shell si the whole group sees,
// at the group's RTT: it walks the session's cell box over contiguous CSR
// positions, testing every user's chord against the shell's one limit. sqrt
// and km→ms are monotone, so the worst squared range gives the group RTT.
func (o *Orchestrator) scanShell(arena []candidate, s *Session, si int) []candidate {
	ix, inj := o.idx, o.cfg.Faults
	sats, posCSR := ix.CSR()
	first, rest, limit := s.Users[0], s.Users[1:], ix.Limit2(si)
	for _, b := range ix.Halves(s.win[si]) {
		for r := b.RowLo; r <= b.RowHi; r++ {
		scan:
			for k, hi := ix.RowSpan(si, b, r); k < hi; k++ {
				pos := posCSR[k]
				rel := pos.Sub(first)
				worst2 := rel.Dot(rel)
				if worst2 > limit {
					continue
				}
				for _, u := range rest {
					rel := pos.Sub(u)
					d2 := rel.Dot(rel)
					if d2 > limit {
						continue scan
					}
					if d2 > worst2 {
						worst2 = d2
					}
				}
				if id := int(sats[k]); inj == nil || inj.SatUp(id) { // hard-failed satellites take no placements
					arena = append(arena, candidate{id: id, rtt: units.RTTMs(math.Sqrt(worst2))})
				}
			}
		}
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

// priceRow computes source satellite sat's pricing row into worker w's list.
func (o *Orchestrator) priceRow(w, sat int) {
	rows, src := &o.pl.rows[w], &o.pl.src[sat]
	lo := len(*rows)
	*rows = o.nsnap.LatenciesWithin(netgraph.NodeID(sat), src.radiusMs, *rows)
	src.row = (*rows)[lo:]
	o.m.ssspSettled.Add(uint64(len(src.row)))
}

// transferMs is the one-way state-transfer latency from sat a to b at the
// current epoch: the cheaper of the shortest ISL path (same-shell pairs,
// read off the source's pricing row) and a ground relay through the session's
// region — the same accounting as meetup.Planner.TransferLatencyMs.
func (o *Orchestrator) transferMs(a, b int, centroid geo.Vec3) float64 {
	snap := o.ring.Frame(0)
	relay := units.PropagationDelayMs(snap[a].Distance(centroid) + centroid.Distance(snap[b]))
	if o.c.Satellites[a].ShellIndex != o.c.Satellites[b].ShellIndex {
		return relay // the +grid does not link shells
	}
	if f := o.cfg.Faults; f != nil && f.ISLDegraded(a, b, o.now) {
		o.m.faultISL.Inc()
		o.epochISL++
		return relay // flapped path: spill the transfer to the ground relay
	}
	src := &o.pl.src[a]
	if src.row == nil {
		// Proposers never touch the row lists, so the serial phase owns
		// them all once the batch above has returned.
		o.priceRow(0, a)
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
