package fleet

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/constellation"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/visibility"
)

func starlink(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// forEachBoxed visits every CSR position inside the session's boxes of the
// given shells: what scanShell walks.
func forEachBoxed(ix *visibility.Index, s *Session, shells []int, fn func(k int32)) {
	for _, si := range shells {
		for _, b := range ix.Halves(s.win[si]) {
			for r := b.RowLo; r <= b.RowHi; r++ {
				for k, hi := ix.RowSpan(si, b, r); k < hi; k++ {
					fn(k)
				}
			}
		}
	}
}

// checkWindowHoldsFootprint checks the window as geometry, whatever
// satellites happen to fly: any point a shell's satellite could be over
// while every user sees it — within the shell's coverage angle of each — is
// in that shell's box. It samples n points per shell around the users, and
// maps each to its cell from CellBox's documented layout (row 0 at the north
// pole, column 0 at −180°), independently of the index's own mapping.
func checkWindowHoldsFootprint(t *testing.T, shells []constellation.Shell, cell float64, win []visibility.CellBox, users []geo.LatLon, rng *rand.Rand, n int) {
	t.Helper()
	rows, cols := int(math.Ceil(180/cell)), int(math.Ceil(360/cell))
	for si, sh := range shells {
		theta := visibility.CoverageCentralAngleRad(sh.AltitudeKm, sh.MinElevationDeg)
		b := win[si]
	points:
		for i := 0; i < n; i++ {
			p := geo.Destination(users[rng.Intn(len(users))], rng.Float64()*360, rng.Float64()*theta*units.EarthRadiusKm)
			for _, u := range users {
				if geo.CentralAngleRad(p, u) > theta {
					continue points
				}
			}
			lon := p.LonDeg
			if lon >= 180 {
				lon -= 360
			}
			row := uint16(min(max(int((90-p.LatDeg)/cell), 0), rows-1))
			col := uint16(min(max(int((lon+180)/cell), 0), cols-1))
			inCols := b.ColLo <= col && col <= b.ColHi
			if b.ColLo > b.ColHi {
				inCols = col >= b.ColLo || col <= b.ColHi
			}
			if row < b.RowLo || row > b.RowHi || !inCols {
				t.Fatalf("shell %d (θ %.2f°), cell %v°: %v is within θ of all of %v but its cell (%d,%d) is outside %+v",
					si, units.Rad2Deg(theta), cell, p, users, row, col, b)
			}
		}
	}
}

// TestWindowAcrossPolesAndDateline aims checkWindowHoldsFootprint at the
// groups whose window is hardest to get right: a user whose cap holds a
// pole (no longitude bound, and an arbitrary longitude label) beside one
// whose cap does not, groups astride the dateline, and users either side of
// a row boundary — on a narrow and a wide shell, at cell sizes that do and
// do not divide 360.
func TestWindowAcrossPolesAndDateline(t *testing.T) {
	c, err := constellation.Build("two", []constellation.Shell{
		{Name: "narrow", AltitudeKm: 350, InclinationDeg: 90, Planes: 2, SatsPerPlane: 2, MinElevationDeg: 40},
		{Name: "wide", AltitudeKm: 1300, InclinationDeg: 90, Planes: 2, SatsPerPlane: 2, MinElevationDeg: 10},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]geo.LatLon{
		{{LatDeg: 90, LonDeg: 0}, {LatDeg: 86, LonDeg: 170}},
		{{LatDeg: 90, LonDeg: 0}, {LatDeg: 86, LonDeg: -175}, {LatDeg: 86.5, LonDeg: 178}},
		{{LatDeg: 89.5, LonDeg: 20}, {LatDeg: 85.5, LonDeg: -165}, {LatDeg: 85, LonDeg: -150}},
		{{LatDeg: -90, LonDeg: 45}, {LatDeg: -85, LonDeg: -140}},
		{{LatDeg: -88, LonDeg: 100}, {LatDeg: -84.5, LonDeg: -80}, {LatDeg: -85, LonDeg: -100}},
		{{LatDeg: 0, LonDeg: 179.9}, {LatDeg: 1, LonDeg: -179.9}},
		{{LatDeg: 50, LonDeg: -179.99}, {LatDeg: 52, LonDeg: 179.5}, {LatDeg: 49, LonDeg: 178}},
		{{LatDeg: 50.01, LonDeg: 10}, {LatDeg: 49.99, LonDeg: 12}}, // either side of a 4° row boundary
		{{LatDeg: 70, LonDeg: -120}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, cellDeg := range []float64{0.5, 4, 7, 30} {
		ix, err := visibility.NewIndex(visibility.NewObserver(c), cellDeg)
		if err != nil {
			t.Fatal(err)
		}
		for _, users := range groups {
			var ecef []geo.Vec3
			for _, u := range users {
				ecef = append(ecef, u.ECEF())
			}
			checkWindowHoldsFootprint(t, c.Shells, cellDeg, ix.Window(ecef), users, rng, 2000)
		}
	}
}

// FuzzSessionWindow pins the session window, the fused scan and the floor
// cut-off to the linear definition over random geometry: Walker shells of
// mixed altitude and mask, listed in any order — random, descending as
// Kuiper lists them, interleaved low and high, or all at one altitude — any
// cell size, groups spread up to 1,500 km about an anchor that may sit on a
// pole, the dateline or a row boundary. Every satellite the linear
// Observer.Visible-for-all-users scan accepts must lie inside the session's
// boxes, at an RTT above its shell's floor; the scan pass's list plus
// scanShell over the shells it skipped must be exactly the oracle's
// candidate set with bit-equal RTTs, the bound it hands the rank pass must be
// the band of its best, and no candidate of a skipped shell may lie within
// that band. Bit 2 of layout attaches a seeded fault injector whose
// one-hour MTBF leaves satellites down at the start time: the scan must skip
// exactly those, as the oracle does.
func FuzzSessionWindow(f *testing.F) {
	f.Add(int64(1), uint8(0), 4.0, 40.0, -100.0, uint8(0))
	f.Add(int64(2), uint8(3), 0.5, 90.0, 0.0, uint8(0))     // north pole, finest grid
	f.Add(int64(3), uint8(7), 30.0, -90.0, 45.0, uint8(0))  // south pole, coarsest grid
	f.Add(int64(4), uint8(1), 7.0, 3.5, 180.0, uint8(0))    // dateline, a cell size that does not divide 360
	f.Add(int64(5), uint8(2), 4.0, 50.0, -179.99, uint8(0)) // row boundary (90−50 = 10·4) beside the dateline
	f.Add(int64(6), uint8(5), 11.0, -66.0, 179.5, uint8(0))
	f.Add(int64(7), uint8(2), 4.0, 35.0, 20.0, uint8(1))    // descending floors, the Kuiper order
	f.Add(int64(15), uint8(4), 4.0, -20.0, 60.0, uint8(2))  // interleaved floors
	f.Add(int64(18), uint8(1), 4.0, 45.0, -70.0, uint8(3))  // equal floors
	f.Add(int64(31), uint8(3), 4.0, 40.0, -100.0, uint8(4)) // satellites down at the start time
	f.Add(int64(34), uint8(0), 0.5, 89.0, 10.0, uint8(5))   // down, descending floors, near a pole
	f.Add(int64(35), uint8(1), 2.0, 60.0, 10.0, uint8(5))   // down, a skipped shell
	f.Add(int64(39), uint8(3), 4.0, 10.0, -60.0, uint8(7))  // down, equal floors
	f.Fuzz(func(t *testing.T, seed int64, nUsers uint8, cellDeg, lat, lon float64, layout uint8) {
		if !(cellDeg >= 0.5 && cellDeg <= 30) || !(math.Abs(lat) <= 90) || !(math.Abs(lon) <= 180) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		shells := make([]constellation.Shell, 1+rng.Intn(4))
		for i := range shells {
			shells[i] = constellation.Shell{
				Name: "s", AltitudeKm: 300 + rng.Float64()*1700, InclinationDeg: 30 + rng.Float64()*70,
				Planes: 6 + rng.Intn(26), SatsPerPlane: 6 + rng.Intn(30), PhaseFactor: rng.Intn(4),
				MinElevationDeg: 5 + rng.Float64()*40,
			}
		}
		byAlt := func(a, b constellation.Shell) int { return cmp.Compare(b.AltitudeKm, a.AltitudeKm) }
		switch layout % 4 {
		case 1:
			slices.SortFunc(shells, byAlt)
		case 2: // highest, lowest, second highest, ...
			slices.SortFunc(shells, byAlt)
			for i := 1; i < len(shells); i++ {
				slices.Reverse(shells[i:])
			}
		case 3:
			for i := range shells {
				shells[i].AltitudeKm = shells[0].AltitudeKm
			}
		}
		c, err := constellation.Build("fuzz", shells, constellation.Config{})
		if err != nil {
			t.Fatal(err)
		}
		anchor := geo.LatLon{LatDeg: lat, LonDeg: lon}
		users := []geo.LatLon{anchor}
		for len(users) < 1+int(nUsers)%8 {
			users = append(users, geo.Destination(anchor, rng.Float64()*360, rng.Float64()*750))
		}
		s, err := NewSession(1, users)
		if err != nil {
			t.Fatal(err)
		}
		var inj *faults.Injector
		if layout&4 != 0 {
			if inj, err = faults.New(c.Size(), faults.Config{Seed: seed, SatMTBFHours: 1}); err != nil {
				t.Fatal(err)
			}
		}
		o, err := New(c, nil, Config{CellDeg: cellDeg, Workers: 1, Registry: obs.NewRegistry(), Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Start(rng.Float64() * 6000); err != nil {
			t.Fatal(err)
		}
		got, pr := o.scan(nil, s)
		if int(pr.hi) != len(got) || pr.lo != 0 {
			t.Fatalf("proposal %+v over %d candidates", pr, len(got))
		}
		bound := math.Inf(1)
		if len(got) > 0 {
			bound = slices.MinFunc(got, cmpByRTT).rtt * (1 + o.cfg.LatencyBand)
		}
		if pr.bound != bound {
			t.Fatalf("scan's band bound %v, want %v", pr.bound, bound)
		}
		skipped := o.shellOrder[pr.next:]
		for _, si := range skipped {
			got = o.scanShell(got, s, si)
		}

		inBox := make([]bool, c.Size())
		sats, _ := o.idx.CSR()
		forEachBoxed(o.idx, s, o.shellOrder, func(k int32) { inBox[sats[k]] = true })
		checkWindowHoldsFootprint(t, shells, cellDeg, s.win, users, rng, 64)

		var want []candidate
		down := 0
		for id, pos := range o.ring.Frame(0) {
			if !o.ring.VisibleAll(s.Users, id, 0) {
				continue
			}
			si := c.Satellites[id].ShellIndex
			if !inBox[id] {
				t.Fatalf("sat %d (shell %d, subpoint %v) visible to all of %v but outside the window %+v",
					id, si, geo.FromECEF(pos), users, s.win)
			}
			rtt := 0.0
			for _, u := range s.Users {
				rtt = max(rtt, units.RTTMs(pos.Distance(u)))
			}
			if floor := o.floorMs[slices.Index(o.shellOrder, si)]; rtt <= floor {
				t.Fatalf("sat %d of shell %d at %v ms, not above the shell's floor %v ms", id, si, rtt, floor)
			}
			if slices.Contains(skipped, si) && rtt <= bound {
				t.Fatalf("sat %d of skipped shell %d at %v ms, within the band's bound %v ms", id, si, rtt, bound)
			}
			if inj != nil && !inj.SatUp(id) {
				down++ // hard-failed: visible, but no candidate
				continue
			}
			want = append(want, candidate{id: id, rtt: rtt})
		}
		t.Logf("%d shells, %d users, cell %v°: %d candidates, %d visible but down, %d shells skipped",
			len(shells), len(users), cellDeg, len(want), down, len(skipped))
		for i := range got {
			got[i].life = 0
		}
		slices.SortFunc(got, func(a, b candidate) int { return a.id - b.id })
		if !slices.Equal(got, want) {
			t.Fatalf("scan kept plus skipped shells %v\nlinear oracle  %v", got, want)
		}
	})
}

// TestProposeScansTightWindow is the count gate on the session window and
// the floor cut-off: on Starlink, over city-weighted groups of 2–5 users,
// the satellites inside the boxes of the shells a proposal scans stay within
// 2.5× the candidates it keeps and 20 a proposal, and it scans at most 1.05
// shells a proposal. One rectangle at the largest shell's coverage angle
// about the centroid read 3.6 scanned per kept; the boxes of all five shells
// read 1.7 per kept but 82 a proposal.
func TestProposeScansTightWindow(t *testing.T) {
	o, err := New(starlink(t), nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	groups, err := trace.Groups(trace.GroupConfig{Seed: 5, Groups: 2000, MinUsers: 2, MaxUsers: 5, SpreadKm: 300, MaxAbsLatDeg: 55})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		t.Fatal(err)
	}
	var scanned, kept, shells int
	for i, g := range groups {
		s, err := NewSession(uint64(i+1), g.Users)
		if err != nil {
			t.Fatal(err)
		}
		cands, pr := o.scan(nil, s)
		kept += len(cands)
		shells += int(pr.next)
		forEachBoxed(o.idx, s, o.shellOrder[:pr.next], func(int32) { scanned++ })
	}
	n := float64(len(groups))
	t.Logf("%d proposals scanned %.3f shells and %d satellites (%.1f each) to keep %d (%.1f each): ratio %.2f",
		len(groups), float64(shells)/n, scanned, float64(scanned)/n, kept, float64(kept)/n, float64(scanned)/float64(kept))
	if kept == 0 || float64(scanned) > 2.5*float64(kept) {
		t.Fatalf("proposals scan %d satellites to keep %d, want at most 2.5 scanned per kept", scanned, kept)
	}
	if float64(scanned) > 20*n || float64(shells) > 1.05*n {
		t.Fatalf("%d proposals scan %d shells and %d satellites, want at most 1.05 shells and 20 satellites each", len(groups), shells, scanned)
	}
}
