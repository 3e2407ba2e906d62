package fleet

// The streaming epoch planner. One Step runs:
//
//	A0  fault events (serial)
//	A   detection over table shards (parallel, disjoint output slots)
//	A2  gather the work in shard order and sort it by session ID (serial)
//	A3  batched SSSP transfer pricing over the epoch's source satellites
//	B/C streaming rounds over the sorted work, one chunk at a time:
//	    propose the chunk in parallel into per-worker arenas, admit it
//	    serially
//	D   ring rotation, index rebuild, clock advance (serial)
//
// Every capacity decision is taken in one global session-ID order, so the
// planner's output is byte-identical for every Workers setting. Streaming
// in chunks keeps the per-epoch footprint at O(chunk · candidates) instead
// of materialising a proposal list for the whole work set — the difference
// between 100k and 1M+ sessions fitting the same epoch loop.
//
// Transfer pricing rides the frozen-CSR engine: the orchestrator chains a
// groundless netgraph snapshot through Network.AtAfter each epoch and
// prices migrations with multi-source SSSP rows (one row per source
// satellite, batched through AllSourcesNodeLatencies when a source has
// several pending moves, lazily via LatencyToAllNodesInto otherwise)
// instead of one point-to-point Dijkstra per satellite pair. The frozen
// CSR's ISL weights are the same PropagationDelayMs values the pairwise
// path computed on the fly, so pricing is bit-identical to the old
// per-pair queries.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/compute"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/migrate"
	"repro/internal/netgraph"
	"repro/internal/par"
	"repro/internal/units"
)

// streamChunk is how many sorted work items one streaming round proposes
// and admits. Large enough to amortise the fan-out, small enough that a
// round's proposal arenas stay cache-resident.
const streamChunk = 8192

// batchMinWork is the pending-move count at which a source satellite's
// SSSP row joins the parallel batch; sources below it are priced lazily,
// one row on first use, since a rejected or holding session may never need
// its row at all.
const batchMinWork = 2

// proposal locates one session's ranked candidate list inside a worker
// arena: pl.workers[w].arena[lo:hi], best candidate first.
type proposal struct {
	w      int32
	lo, hi int32
	latSec float64
}

// workerScratch is one proposal worker's private memory: the candidate
// build buffer and the arena that holds the round's ranked lists. Padded
// so neighbouring workers' slice headers do not false-share.
type workerScratch struct {
	cands []candidate
	arena []candidate
	_     [64]byte
}

// plannerState is the orchestrator's reusable per-epoch scratch. Every
// slice is reset to length zero between epochs and grows to the workload's
// high-water mark once.
type plannerState struct {
	workByShard  [][]workItem
	goneByShard  [][]*Session
	deferByShard []int

	work    []workItem // the epoch's work list, ascending session ID
	props   []proposal
	workers []workerScratch
	gone    []*Session

	srcCount []int32           // per-satellite pending re-placement count
	srcTouch []int32           // satellites with non-zero srcCount (reset list)
	batch    []netgraph.NodeID // batched SSSP sources, ascending
	rows     map[int][]float64 // source satellite → one-way latency row
	lazyRows [][]float64       // reusable row buffers for lazy sources
	lazyUsed int
}

func (pl *plannerState) init(o *Orchestrator) {
	nShards := o.tab.NumShards()
	pl.workByShard = make([][]workItem, nShards)
	pl.goneByShard = make([][]*Session, nShards)
	pl.deferByShard = make([]int, nShards)
	pl.props = make([]proposal, streamChunk)
	pl.workers = make([]workerScratch, o.cfg.Workers)
	pl.srcCount = make([]int32, o.c.Size())
	pl.rows = make(map[int][]float64)
}

// reset clears the scratch for a new epoch, keeping every allocation.
func (pl *plannerState) reset() {
	for i := range pl.workByShard {
		pl.workByShard[i] = pl.workByShard[i][:0]
	}
	for i := range pl.goneByShard {
		pl.goneByShard[i] = pl.goneByShard[i][:0]
	}
	for i := range pl.deferByShard {
		pl.deferByShard[i] = 0
	}
	pl.work = pl.work[:0]
	for _, sat := range pl.srcTouch {
		pl.srcCount[sat] = 0
	}
	pl.srcTouch = pl.srcTouch[:0]
	pl.batch = pl.batch[:0]
	for k := range pl.rows {
		delete(pl.rows, k)
	}
	pl.lazyUsed = 0
}

// lazyRow hands out the next reusable SSSP row buffer.
func (pl *plannerState) lazyRow(nodes int) []float64 {
	if pl.lazyUsed == len(pl.lazyRows) {
		pl.lazyRows = append(pl.lazyRows, make([]float64, nodes))
	}
	r := pl.lazyRows[pl.lazyUsed]
	pl.lazyUsed++
	return r
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

	// Chain the routing snapshot to this epoch. AtAfter rides the
	// delta-freeze path; with no ground nodes the freeze is a bare CSR
	// assembly over the static ISL grid, deferred until the first SSSP.
	o.nsnap = o.net.AtAfter(o.nsnap, o.now)

	// Phase A — detection, parallel across table shards: find departures
	// and sessions needing (re-)placement. Sessions on a hard-failed
	// satellite evacuate immediately, ahead of their visibility expiry;
	// sessions inside a retry backoff window are deferred.
	par.Chunks(o.tab.NumShards(), o.cfg.Workers, func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			o.tab.Shard(si, func(m map[uint64]*Session) {
				for _, s := range m {
					switch {
					case s.ExpiresAt <= o.now:
						pl.goneByShard[si] = append(pl.goneByShard[si], s)
					case s.Sat >= 0 && !o.satUp(s.Sat):
						// A dead satellite overrides any retry backoff: the
						// session must evacuate now, not when its timer says.
						pl.workByShard[si] = append(pl.workByShard[si], workItem{sess: s, evacuating: true})
					case s.RetryAt > o.now:
						pl.deferByShard[si]++
					case s.Sat < 0:
						pl.workByShard[si] = append(pl.workByShard[si], workItem{sess: s})
					case !o.visibleAll(s, s.Sat, o.ring[1]):
						pl.workByShard[si] = append(pl.workByShard[si], workItem{sess: s, expiring: true})
					}
				}
			})
		}
	})
	for _, n := range pl.deferByShard {
		rep.BackoffDeferrals += n
	}
	o.m.retryDeferred.Add(uint64(rep.BackoffDeferrals))

	// Departures leave before placement so their capacity frees this epoch.
	gone := pl.gone[:0]
	for si := range pl.goneByShard {
		gone = append(gone, pl.goneByShard[si]...)
	}
	slices.SortFunc(gone, func(a, b *Session) int {
		if a.ID < b.ID {
			return -1
		}
		if a.ID > b.ID {
			return 1
		}
		return 0
	})
	for _, s := range gone {
		if s.Sat >= 0 {
			_ = o.nodes[s.Sat].Release(int(s.ID))
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
	o.m.departures.Add(uint64(rep.Departures))
	pl.gone = gone[:0]

	// Phase A2 — gather the work in shard order, counting pending moves per
	// source satellite for the SSSP batch, and sort it by session ID (map
	// iteration made the arrival order arbitrary).
	for si := range pl.workByShard {
		for _, w := range pl.workByShard[si] {
			pl.work = append(pl.work, w)
			if sat := w.sess.Sat; sat >= 0 {
				if pl.srcCount[sat] == 0 {
					pl.srcTouch = append(pl.srcTouch, int32(sat))
				}
				pl.srcCount[sat]++
			}
		}
	}
	slices.SortFunc(pl.work, func(a, b workItem) int { return cmp.Compare(a.sess.ID, b.sess.ID) })

	// Phase A3 — batched transfer pricing: every source satellite with
	// several pending moves gets its SSSP row up front through the adaptive
	// multi-source fan-out; stragglers fill in lazily inside admission.
	slices.Sort(pl.srcTouch)
	for _, sat := range pl.srcTouch {
		if pl.srcCount[sat] >= batchMinWork {
			pl.batch = append(pl.batch, netgraph.NodeID(sat))
		}
	}
	if len(pl.batch) > 0 {
		rows := o.nsnap.AllSourcesNodeLatencies(pl.batch)
		for i, src := range pl.batch {
			pl.rows[int(src)] = rows[i]
		}
		o.m.ssspBatched.Add(uint64(len(pl.batch)))
	}

	// Phases B/C — streaming rounds over the sorted work: propose a chunk
	// in parallel, admit it serially in session-ID order. Proposals read
	// only the ring and index, never capacity, so chunking cannot change
	// any admission decision.
	for at := 0; at < len(pl.work); at += streamChunk {
		chunk := pl.work[at:min(at+streamChunk, len(pl.work))]
		o.m.streamChunks.Inc()
		par.Chunks(len(chunk), o.cfg.Workers, func(w, lo, hi int) {
			sc := &pl.workers[w]
			for i := lo; i < hi; i++ {
				pl.props[i] = o.propose(sc, int32(w), chunk[i].sess)
			}
		})
		if err := o.admitChunk(chunk, &rep); err != nil {
			return rep, err
		}
		for i := range chunk {
			o.m.placeLat.Observe(pl.props[i].latSec)
			o.m.replanQ.Observe(pl.props[i].latSec * 1e3)
		}
		for w := range pl.workers {
			pl.workers[w].arena = pl.workers[w].arena[:0]
		}
	}
	o.m.rejections.Add(uint64(rep.Rejections))

	// Phase D — advance the epoch clock: rotate the ring, fetch the new
	// horizon snapshot from the ephemeris engine (every other ring frame
	// is a cache hit), re-bucket the index.
	o.now += o.cfg.StepSec
	copy(o.ring, o.ring[1:])
	o.ring[o.k] = o.eng.SnapshotAt(o.now + float64(o.k)*o.cfg.StepSec)
	o.idx.Rebuild(o.ring[0])

	rep.Sessions = o.tab.Len()
	rep.Assigned = o.nAssigned
	util := 0.0
	for _, n := range o.nodes {
		util += n.UtilizationCores()
	}
	rep.MeanUtilization = util / float64(len(o.nodes))
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

// admitChunk runs the serial admission phase over one streaming chunk:
// first ranked candidate with spare capacity wins; sessions spill down
// their ranking when a satellite is full, and are rejected (retrying next
// epoch) when none fits.
func (o *Orchestrator) admitChunk(chunk []workItem, rep *EpochReport) error {
	pl := &o.pl
	task := func(s *Session) compute.Task {
		return compute.Task{ID: int(s.ID), Cores: s.CoresDemand, MemoryGB: s.MemoryGB}
	}
	for i, w := range chunk {
		s := w.sess
		evac := w.evacuating || s.Evacuating
		if w.expiring {
			rep.Expiring++
		}
		if s.Retries > 0 {
			o.m.migRetries.Inc()
		}
		pr := pl.props[i]
		ranked := pl.workers[pr.w].arena[pr.lo:pr.hi]
		chosen := candidate{id: -1}
		for _, cand := range ranked {
			if cand.id == s.Sat || o.nodes[cand.id].Fits(task(s)) {
				chosen = cand
				break
			}
		}
		if chosen.id < 0 {
			if s.Sat >= 0 {
				_ = o.nodes[s.Sat].Release(int(s.ID))
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
					_ = o.nodes[from].Release(int(s.ID))
					s.Sat = -1
					o.nAssigned--
					o.deferEvacuation(s, rep)
				}
				continue
			}
			if err := o.nodes[chosen.id].Place(task(s)); err != nil {
				return fmt.Errorf("fleet: admission of session %d: %w", s.ID, err)
			}
			_ = o.nodes[from].Release(int(s.ID))
			transfer := o.transferMs(from, chosen.id, s.Centroid)
			res, merr := migrate.Live(
				migrate.State{SessionMB: s.StateMB, DirtyRateMBps: o.cfg.DirtyRateMBps},
				migrate.Link{BandwidthMBps: migrate.GbpsToMBps(o.cfg.ISLBandwidthGbps), OneWayMs: transfer},
				migrate.LiveConfig{GenericReplicatedAhead: true},
			)
			if merr != nil {
				return fmt.Errorf("fleet: migration cost of session %d: %w", s.ID, merr)
			}
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
			if err := o.nodes[chosen.id].Place(task(s)); err != nil {
				return fmt.Errorf("fleet: admission of session %d: %w", s.ID, err)
			}
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

// propose computes a session's ranked candidate list into the worker's
// arena: all satellites visible to the whole group, Sticky-ordered —
// candidates within the latency band ranked by remaining visibility (the
// paper's stationarity objective), then the rest by latency for load
// spill.
func (o *Orchestrator) propose(sc *workerScratch, w int32, s *Session) proposal {
	t0 := time.Now()
	snap := o.ring[0]
	cands := sc.cands[:0]
	qStart := time.Now()
	o.idx.ForEachNear(s.CentroidLL.LatDeg, s.CentroidLL.LonDeg, s.SpreadKm, func(id int, pos geo.Vec3) {
		if !o.satUp(id) {
			return // hard-failed satellites take no placements
		}
		if rtt, ok := o.groupRTT(s, id, snap); ok {
			cands = append(cands, candidate{id: id, rtt: rtt})
		}
	})
	o.m.indexQuery.Observe(time.Since(qStart).Seconds())
	sc.cands = cands
	if len(cands) == 0 {
		return proposal{w: w, latSec: time.Since(t0).Seconds()}
	}
	minRTT := math.Inf(1)
	for _, c := range cands {
		if c.rtt < minRTT {
			minRTT = c.rtt
		}
	}
	bound := minRTT * (1 + o.cfg.LatencyBand)
	band := 0
	for i := range cands {
		if cands[i].rtt <= bound {
			cands[band], cands[i] = cands[i], cands[band]
			band++
		}
	}
	for i := 0; i < band; i++ {
		cands[i].life = o.lifeEpochs(s, cands[i].id)
	}
	slices.SortFunc(cands[:band], cmpBand)
	rest := cands[band:]
	slices.SortFunc(rest, cmpByRTT)
	// Admission order: the Sticky pool first, then everything else by
	// latency. Keeping the full list (not just the pool) is what lets
	// admission spill under load instead of rejecting.
	lo := int32(len(sc.arena))
	if band > o.cfg.PoolSize {
		sc.arena = append(sc.arena, cands[:o.cfg.PoolSize]...)
		overflow := cands[o.cfg.PoolSize:band]
		slices.SortFunc(overflow, cmpByRTT)
		sc.arena = mergeByLatency(sc.arena, overflow, rest)
	} else {
		sc.arena = append(sc.arena, cands...)
	}
	return proposal{w: w, lo: lo, hi: int32(len(sc.arena)), latSec: time.Since(t0).Seconds()}
}

// mergeByLatency appends the merge of two latency-sorted candidate slices
// onto dst.
func mergeByLatency(dst []candidate, a, b []candidate) []candidate {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].rtt < b[j].rtt || (a[i].rtt == b[j].rtt && a[i].id <= b[j].id) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// transferMs is the one-way state-transfer latency from sat a to b at the
// current epoch: the cheaper of the shortest ISL path (same-shell pairs,
// read off the source's SSSP row) and a ground relay through the session's
// region — the same accounting as meetup.Planner.TransferLatencyMs.
func (o *Orchestrator) transferMs(a, b int, centroid geo.Vec3) float64 {
	snap := o.ring[0]
	relay := units.PropagationDelayMs(snap[a].Distance(centroid) + centroid.Distance(snap[b]))
	if o.c.Satellites[a].ShellIndex != o.c.Satellites[b].ShellIndex {
		return relay // the +grid does not link shells
	}
	if f := o.cfg.Faults; f != nil && f.ISLDegraded(a, b, o.now) {
		o.m.faultISL.Inc()
		o.epochISL++
		return relay // flapped path: spill the transfer to the ground relay
	}
	row, ok := o.pl.rows[a]
	if !ok {
		row = o.nsnap.LatencyToAllNodesInto(netgraph.NodeID(a), o.pl.lazyRow(o.net.Nodes()))
		o.pl.rows[a] = row
		o.m.ssspLazy.Inc()
	}
	// Unreachable pairs read +Inf off the row, so the relay wins — the
	// degenerate-topology fallback of the pairwise path.
	return math.Min(row[b], relay)
}
