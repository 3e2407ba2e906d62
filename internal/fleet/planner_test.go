package fleet

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/faults"
	"repro/internal/units"
)

// runEpochs drives one orchestrator over sessions on c, chunkLen work items
// to a streaming round (0 = the default), and returns its epoch reports
// plus the final (session → satellite) assignment map.
func runEpochs(t testing.TB, c *constellation.Constellation, cfg Config, sessions []*Session, chunkLen, epochs int) ([]EpochReport, map[uint64]int) {
	t.Helper()
	o, err := New(c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if chunkLen > 0 {
		o.pl.chunkLen = chunkLen
	}
	if err := o.SubmitBatch(sessions); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	reps := make([]EpochReport, 0, epochs)
	for i := 0; i < epochs; i++ {
		rep, err := o.Step()
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, stripWallClock(rep))
	}
	sats := map[uint64]int{}
	for _, s := range o.tab.Ordered() {
		sats[s.ID] = s.Sat
	}
	return reps, sats
}

// twoShellConst is toyConst under a sparse 1,110 km shell: its floor RTT is
// beyond the low shell's band over the test groups, so proposals skip it and
// only admission's spill reads it.
func twoShellConst(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("toy2", []constellation.Shell{
		{Name: "low", AltitudeKm: 550, InclinationDeg: 53, Planes: 32, SatsPerPlane: 32, PhaseFactor: 11, MinElevationDeg: 20},
		{Name: "high", AltitudeKm: 1110, InclinationDeg: 53, Planes: 12, SatsPerPlane: 12, PhaseFactor: 5, MinElevationDeg: 20},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPlannerWorkerInvariance is the planner's core determinism contract:
// neither the worker count (including the inline one-worker path) nor where
// the chunk boundaries fall may change a decision — proposals for chunk k+1
// run while chunk k is admitted. 400 sessions at 96 to a chunk is five
// rounds of two blocks the first epoch and a ragged tail after; every width
// reproduces the one-worker, one-chunk reports and final assignments, with
// a fault injector and without. The satellites are full, so admission's
// spill scans the high shell proposals skipped: the count of those scans is
// a decision too, equal at every width.
func TestPlannerWorkerInvariance(t *testing.T) {
	c := twoShellConst(t)
	for _, chaos := range []bool{false, true} {
		run := func(workers, chunkLen int) ([]EpochReport, map[uint64]int, uint64) {
			cfg := testConfig()
			cfg.Workers = workers
			cfg.Server = compute.ServerSpec{Cores: 2, MemoryGB: 64, PowerCapFraction: 1} // full satellites: admission spills
			if chaos {
				inj, err := faults.New(c.Size(), faults.Config{
					Seed: 11, SatMTBFHours: 4, SatMTTRSec: 600, ISLFlapPerHour: 6, MigrationFailProb: 0.3,
				})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = inj
			}
			reps, sats := runEpochs(t, c, cfg, testGroups(t, 400), chunkLen, 12)
			return reps, sats, cfg.Registry.Counter("fleet_spill_shell_scans_total", "").Value()
		}
		baseReps, baseSats, baseScans := run(1, 0)
		if n := baseReps[0].Placements + baseReps[0].Rejections; n < 3*96 {
			t.Fatalf("first epoch planned %d sessions: the population no longer spans three chunks", n)
		}
		if baseReps[0].Rejections == 0 {
			t.Fatal("no rejections: satellites are not full, so admission order is not exercised")
		}
		if baseScans == 0 {
			t.Fatal("admission scanned no skipped shell: the lazy spill path is not exercised")
		}
		t.Logf("chaos=%v: %d skipped shells scanned by admission", chaos, baseScans)
		for _, workers := range []int{1, 2, 8} {
			reps, sats, scans := run(workers, 96)
			for i := range baseReps {
				if !reflect.DeepEqual(reps[i], baseReps[i]) {
					t.Fatalf("chaos=%v workers=%d epoch %d diverged:\n%+v\nwant\n%+v", chaos, workers, i, reps[i], baseReps[i])
				}
			}
			if !reflect.DeepEqual(sats, baseSats) {
				t.Fatalf("chaos=%v workers=%d final assignments diverged", chaos, workers)
			}
			if scans != baseScans {
				t.Fatalf("chaos=%v workers=%d: admission scanned %d skipped shells, want %d", chaos, workers, scans, baseScans)
			}
		}
	}
}

// TestPlannerSubmitOrderInvariance: the table, not the caller, puts the work
// in session-ID order. The same 400 sessions submitted ascending, descending
// and shuffled — plus, mid-run, a Submit of an ID below every live one and
// a Remove — must plan identically at every worker count, chaos on, on full
// satellites where admission order decides who fits. A table that only
// appended would hand admission its work in submission order.
func TestPlannerSubmitOrderInvariance(t *testing.T) {
	c := twoShellConst(t)
	run := func(order string, workers int) ([]EpochReport, map[uint64]int, uint64) {
		cfg := testConfig()
		cfg.Workers = workers
		cfg.Server = compute.ServerSpec{Cores: 2, MemoryGB: 64, PowerCapFraction: 1}
		inj, err := faults.New(c.Size(), faults.Config{
			Seed: 11, SatMTBFHours: 4, SatMTTRSec: 600, ISLFlapPerHour: 6, MigrationFailProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
		o, err := New(c, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessions := testGroups(t, 401)
		held, rest := sessions[0], sessions[1:] // ID 1 arrives mid-run
		switch order {
		case "descending":
			slices.Reverse(rest)
		case "shuffled":
			rand.New(rand.NewSource(5)).Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		}
		if err := o.SubmitBatch(rest); err != nil {
			t.Fatal(err)
		}
		if err := o.Start(0); err != nil {
			t.Fatal(err)
		}
		var reps []EpochReport
		for epoch := 0; epoch < 12; epoch++ {
			if epoch == 4 {
				if err := o.Submit(held); err != nil {
					t.Fatal(err)
				}
				if !o.Remove(200) {
					t.Fatal("Remove(200) found no session")
				}
			}
			rep, err := o.Step()
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, stripWallClock(rep))
		}
		sats := map[uint64]int{}
		for _, s := range o.tab.Ordered() {
			sats[s.ID] = s.Sat
		}
		return reps, sats, cfg.Registry.Counter("fleet_spill_shell_scans_total", "").Value()
	}
	baseReps, baseSats, baseScans := run("ascending", 1)
	if baseReps[0].Rejections == 0 || baseScans == 0 {
		t.Fatalf("%d rejections, %d spill scans: admission order is not exercised", baseReps[0].Rejections, baseScans)
	}
	_, late := baseSats[1]
	_, removed := baseSats[200]
	if len(baseSats) != 400 || !late || removed {
		t.Fatalf("%d sessions at the end (late one in: %v, removed one in: %v), want 400, true, false", len(baseSats), late, removed)
	}
	for _, order := range []string{"ascending", "descending", "shuffled"} {
		for _, workers := range []int{1, 2, 8} {
			reps, sats, scans := run(order, workers)
			for i := range baseReps {
				if !reflect.DeepEqual(reps[i], baseReps[i]) {
					t.Fatalf("%s workers=%d epoch %d diverged:\n%+v\nwant\n%+v", order, workers, i, reps[i], baseReps[i])
				}
			}
			if !reflect.DeepEqual(sats, baseSats) {
				t.Fatalf("%s workers=%d final assignments diverged", order, workers)
			}
			if scans != baseScans {
				t.Fatalf("%s workers=%d: admission scanned %d skipped shells, want %d", order, workers, scans, baseScans)
			}
		}
	}
}

// TestResubmittedSessionsRebuildWindow: a session's cached window belongs
// to one orchestrator's grid and shells. The same []*Session run through a
// 4° Starlink orchestrator and then submitted to a 2° Telesat one must plan
// there exactly as freshly built sessions do.
func TestResubmittedSessionsRebuildWindow(t *testing.T) {
	telesat, err := constellation.Telesat(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(cellDeg float64) Config {
		c := testConfig()
		c.CellDeg = cellDeg
		return c
	}
	used := testGroups(t, 60)
	runEpochs(t, starlink(t), cfg(4), used, 0, 3)
	for _, s := range used {
		if len(s.win) != 5 {
			t.Fatalf("session %d: window %v after a Starlink run, want five boxes", s.ID, s.win)
		}
		// What a caller resets to re-use a session; the window is not theirs to reset.
		s.Handoffs, s.PlacedAt, s.RTTMs = 0, 0, 0
	}
	gotReps, gotSats := runEpochs(t, telesat, cfg(2), used, 0, 8)
	wantReps, wantSats := runEpochs(t, telesat, cfg(2), testGroups(t, 60), 0, 8)
	if !reflect.DeepEqual(gotReps, wantReps) {
		t.Fatalf("re-submitted sessions planned differently:\n%+v\nwant\n%+v", gotReps, wantReps)
	}
	if !reflect.DeepEqual(gotSats, wantSats) {
		t.Fatal("re-submitted sessions ended on different satellites")
	}
	if wantReps[len(wantReps)-1].Assigned == 0 {
		t.Fatal("nothing assigned on Telesat — the comparison is vacuous")
	}
}

// stripWallClock zeroes the non-deterministic wall-clock field so reports
// compare on decisions only.
func stripWallClock(rep EpochReport) EpochReport {
	rep.WallSec = 0
	return rep
}

// TestPlannerAllCandidatesDead: an immediate permanent all-satellite
// failure leaves every session's candidate set dead mid-epoch. The
// streaming loop must keep rejecting (not crash, not assign to a corpse)
// and account every session as evacuating.
func TestPlannerAllCandidatesDead(t *testing.T) {
	o, inj := chaosOrch(t, 30, faults.Config{
		Seed:         3,
		SatMTBFHours: 1e-6, // every satellite fails in the first epoch
		SatMTTRSec:   -1,   // permanently
	})
	for epoch := 0; epoch < 4; epoch++ {
		rep, err := o.Step()
		if err != nil {
			t.Fatal(err)
		}
		// Epoch 0 runs at t=0, before any failure fires; epoch 1 consumes
		// the full burst (every draw lands within milliseconds of t=0).
		if epoch == 1 && rep.SatFailures != o.Constellation().Size() {
			t.Fatalf("epoch 1: %d failures, want all %d satellites", rep.SatFailures, o.Constellation().Size())
		}
		if epoch > 0 && rep.Assigned != 0 {
			t.Fatalf("epoch %d: %d sessions assigned with zero live satellites", epoch, rep.Assigned)
		}
	}
	assigned, evacuating, onDown := auditSessions(o, inj)
	if assigned != 0 || onDown != 0 {
		t.Fatalf("%d assigned (%d on down sats) after total failure", assigned, onDown)
	}
	if evacuating != 30 {
		t.Fatalf("%d sessions evacuating, want all 30", evacuating)
	}
	st := o.Stats()
	if st.DownSats != o.Constellation().Size() || st.EvacuationsPending != 30 {
		t.Fatalf("Stats down=%d pending=%d, want %d/%d",
			st.DownSats, st.EvacuationsPending, o.Constellation().Size(), 30)
	}
}

// FuzzAdmissionOrder pins the admission pick against its definition: the
// band ranked by cmpBand, its first PoolSize entries, then everything else
// the session sees sorted by cmpByRTT, and the first entry of that order
// that fits wins. The planner only sorts the band, takes the least fitting
// candidate of the unordered rest of the scanned shells, and reveals the
// skipped shells in floor order only while nothing that fits lies below the
// next floor. Each candidate carries one of four shells, whose floor sits
// strictly under all of its RTTs — just under, or below by a margin that
// lands on other shells' RTTs — and a cut splits the shells, in floor order,
// into scanned and skipped (the band lies in the scanned ones). At every
// capacity mask — nothing fits, only the held satellite fits, duplicate
// RTTs, equal floors, empty shells, bands and pools wider than the band
// included — pick must return the reference's first fitting entry.
func FuzzAdmissionOrder(f *testing.F) {
	f.Add([]byte{3, 1, 0, 3, 0, 1, 7, 2, 2, 1, 1, 0, 7, 3, 3, 0, 0, 1}, uint8(3), uint8(2), false, uint64(0b101010), int8(4), uint8(0b11100100), uint8(1))
	f.Add([]byte{5, 5, 0, 5, 5, 1, 5, 5, 2, 5, 5, 3, 5, 5, 0}, uint8(5), uint8(8), true, uint64(1<<4), int8(-1), uint8(0), uint8(2))
	f.Add([]byte{9, 0, 1}, uint8(0), uint8(1), false, uint64(0), int8(0), uint8(0), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(5), false, ^uint64(0), int8(-1), uint8(0), uint8(4))
	f.Add([]byte{1, 1, 0, 2, 2, 1, 3, 3, 2, 4, 0, 3, 5, 1, 1, 6, 2, 2}, uint8(2), uint8(1), true, uint64(0), int8(-1), uint8(0b01010101), uint8(1))
	f.Add([]byte{1, 0, 0, 6, 1, 1, 2, 2, 1, 7, 3, 2, 3, 0, 3}, uint8(1), uint8(0), false, uint64(0b10100), int8(-1), uint8(0b10011000), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, bandByte, poolByte uint8, descendingIDs bool, mask uint64, held int8, gaps, cutByte uint8) {
		const nShells = 4
		n := len(raw) / 3
		cands, shellOf := make([]candidate, n), make([]int, n)
		minRTT := []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
		for i := range cands {
			id := i
			if descendingIDs {
				id = n - 1 - i
			}
			// Few distinct RTTs and lives, so ties reach the ID tie-break.
			cands[i] = candidate{id: id, rtt: float64(1 + raw[3*i]%8), life: int(raw[3*i+1] % 4)}
			shellOf[i] = int(raw[3*i+2] % nShells)
			minRTT[shellOf[i]] = min(minRTT[shellOf[i]], cands[i].rtt)
		}
		floors := make([]float64, nShells)
		for sh := range floors {
			switch g := gaps >> (2 * sh) & 3; {
			case math.IsInf(minRTT[sh], 1):
				floors[sh] = 2.5 * float64(g+1) // an empty shell
			case g == 0:
				floors[sh] = math.Nextafter(minRTT[sh], 0)
			default:
				floors[sh] = minRTT[sh] - []float64{0, 0.5, 1, 2.5}[g]
			}
		}
		order := []int{0, 1, 2, 3}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(floors[a], floors[b]) })
		cut := int(cutByte) % (nShells + 1)
		floorsMs := make([]float64, 0, nShells)
		for _, sh := range order[cut:] {
			floorsMs = append(floorsMs, floors[sh])
		}
		// The scanned shells' candidates in input order, and the skipped ones
		// by shell.
		var scanned []candidate
		skipped := make([][]candidate, nShells)
		for i, c := range cands {
			if k := slices.Index(order, shellOf[i]); k < cut {
				scanned = append(scanned, c)
			} else {
				skipped[k-cut] = append(skipped[k-cut], c)
			}
		}
		band := int(bandByte) % (len(scanned) + 1)
		poolSize := 1 + int(poolByte)%8
		// A satellite fits when its mask bit is set, or when the session
		// already holds it.
		fits := func(id int) bool { return id == int(held) || mask>>(id%64)&1 == 1 }

		ref := slices.Clone(scanned)
		for _, sh := range skipped {
			ref = append(ref, sh...)
		}
		slices.SortFunc(ref[:band], cmpBand)
		slices.SortFunc(ref[min(band, poolSize):], cmpByRTT)
		want := candidate{id: -1}
		if i := slices.IndexFunc(ref, func(c candidate) bool { return fits(c.id) }); i >= 0 {
			want = ref[i]
		}

		pool := rankForAdmission(scanned, band, poolSize)
		if pool != min(band, poolSize) || !slices.Equal(scanned[:pool], ref[:pool]) {
			t.Fatalf("pool %v (size %d), want %v", scanned[:pool], pool, ref[:min(band, poolSize)])
		}
		revealed := 0
		got, nScanned := pick(scanned[:pool], scanned[pool:], floorsMs, func(k int) []candidate {
			if k != revealed {
				t.Fatalf("shell %d revealed out of floor order, after %d", k, revealed)
			}
			revealed++
			return skipped[k]
		}, fits)
		if got != want || nScanned != revealed {
			t.Fatalf("band %d PoolSize %d mask %b held %d floors %v cut %d: picked %+v after %d of %d shells (reported %d), reference order %v picks %+v",
				band, poolSize, mask, held, floors, cut, got, revealed, len(floorsMs), nScanned, ref, want)
		}
	})
}

// TestResetClearsScratchAfterFailedStep: a Step that fails inside
// admission returns with a chunk half admitted, the next chunk's proposals
// in the other buffer and — unless it joined them — proposers still running.
// The orchestrator must be usable afterwards: the next Step neither races a
// leftover proposer (run under -race) nor reads a stale candidate.
func TestResetClearsScratchAfterFailedStep(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	o, err := New(toyConst(t), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.pl.chunkLen = 4 // several chunks and both buffers in play every epoch
	sessions := testGroups(t, 200)
	if err := o.SubmitBatch(sessions); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(); err != nil {
		t.Fatal(err)
	}
	// Make the first hand-off's migration costing fail.
	dirty := o.cfg.DirtyRateMBps
	o.cfg.DirtyRateMBps = 1e12
	for epoch := 0; err == nil; epoch++ {
		if epoch == 30 {
			t.Fatal("no hand-off in 30 epochs")
		}
		_, err = o.Step()
	}
	if len(o.pl.work) <= 2*o.pl.chunkLen {
		t.Fatalf("failing epoch had %d work items: no proposals were running ahead of the admission that failed", len(o.pl.work))
	}
	o.cfg.DirtyRateMBps = dirty
	// Recovery: later epochs read no stale candidate — every placement is
	// on a satellite its whole group sees, at that group's own RTT.
	var rep EpochReport
	for epoch := 0; epoch < 5; epoch++ {
		snap, now := o.ring.Frame(0), o.now
		if rep, err = o.Step(); err != nil {
			t.Fatal(err)
		}
		for _, s := range sessions {
			if s.Sat < 0 || s.PlacedAt != now {
				continue
			}
			rtt := 0.0
			for _, u := range s.Users {
				rtt = max(rtt, units.RTTMs(snap[s.Sat].Distance(u)))
			}
			if !visibleAll(o, s, s.Sat, snap) || s.RTTMs != rtt {
				t.Fatalf("t=%v: session %d placed on sat %d at %v ms; its group sees it: %v, at %v ms",
					now, s.ID, s.Sat, s.RTTMs, visibleAll(o, s, s.Sat, snap), rtt)
			}
		}
	}
	// The books balance: the failed Step costed its move before touching
	// capacity, so no session is half moved or double-booked.
	assigned, demand := 0, 0.0
	for _, s := range sessions {
		if s.Sat >= 0 {
			assigned++
			demand += s.CoresDemand
		}
	}
	used := 0.0
	for _, u := range o.Utilization() {
		used += u * o.cfg.Server.EffectiveCores()
	}
	if assigned != rep.Assigned || math.Abs(used-demand) > 1e-6 {
		t.Fatalf("report says %d assigned, sessions %d; nodes hold %.3f cores, sessions demand %.3f", rep.Assigned, assigned, used, demand)
	}
}
