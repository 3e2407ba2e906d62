package meetup

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/orbit"
)

// FuzzMinMaxWindow: a MinMax session, whose steps scan only the planner's
// candidate window, picks at every step what the full-scan SelectMinMax
// picks — over random groups and step sequences mixing small steps, jumps
// past the window and backward steps, on two shells with J2 on.
func FuzzMinMaxWindow(f *testing.F) {
	c, err := constellation.Build("window", []constellation.Shell{
		{Name: "low", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 22, PhaseFactor: 5, MinElevationDeg: 25},
		{Name: "high", AltitudeKm: 1110, InclinationDeg: 70, Planes: 12, SatsPerPlane: 20, PhaseFactor: 3, MinElevationDeg: 35},
	}, constellation.Config{Orbit: orbit.Options{J2: true}})
	if err != nil {
		f.Fatal(err)
	}
	grid := isl.NewPlusGrid(c)
	eng := ephem.New(c, ephem.Config{})
	f.Add(int64(1), 9.0, 7.5, 3.0, 0.0, []byte{0, 1, 2, 3, 250, 4, 5, 200, 6})
	f.Add(int64(7), -40.0, 170.0, 0.5, 5000.0, []byte{255, 255, 7, 7, 7, 230, 231})
	f.Add(int64(109), 9.0, 170.0, 0.5, 5000.0, []byte("1\xc17\xff\xff7\xe7")) // needs the speed term
	f.Fuzz(func(t *testing.T, seed int64, lat, lon, spreadDeg, t0 float64, steps []byte) {
		anchor := geo.LatLon{LatDeg: lat, LonDeg: lon}
		if !anchor.Valid() || !(spreadDeg >= 0 && spreadDeg <= 5) || !(t0 >= -1e6 && t0 <= 1e6) || len(steps) > 200 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		users := make([]geo.LatLon, 1+r.Intn(5))
		for i := range users {
			users[i] = geo.Destination(anchor, r.Float64()*360, r.Float64()*spreadDeg*111)
		}
		p, err := NewPlanner(c, grid, users, Config{})
		if err != nil {
			t.Skip()
		}
		s := &Session{p: p, eng: eng, res: SessionResult{Policy: MinMax}, cur: Candidate{SatID: -1}}
		tt := t0
		for _, b := range steps {
			if b < 192 { // a small step forward, or a repeat
				tt += float64(b%8) * 0.75
			} else { // a jump of up to ±128 s, past the window either way
				tt += float64(int(b)-224) * 4
			}
			snap := eng.SnapshotAt(tt)
			prev := s.cur
			if s.cur.SatID < 0 { // no server yet: seed with the first pick
				if first, err := p.scan(snap, p.window(tt, snap), -1, nil); err == nil {
					s.cur = first
				}
			} else {
				s.Step(tt, snap)
			}
			want, err := p.SelectMinMax(snap)
			if err != nil {
				want = prev // a coverage gap keeps the current server
			}
			if s.cur.SatID != want.SatID {
				t.Fatalf("t=%v: windowed session holds %+v, full scan picks %+v", tt, s.cur, want)
			}
		}
	})
}

// TestMinMaxWindowScansFew: over one 2 h Fig 6 group at 2 s steps on
// Starlink, the windowed MinMax scans on average at most a tenth of the
// constellation, and its every pick lies in the window.
func TestMinMaxWindowScansFew(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation simulation")
	}
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	group := []geo.LatLon{{LatDeg: 9.06, LonDeg: 7.49}, {LatDeg: 8.50, LonDeg: 9.00}, {LatDeg: 10.20, LonDeg: 6.30}}
	p, eng := newPlanner(t, c, group, Config{})
	s, err := p.Begin(eng, MinMax, 0, eng.SnapshotAt(0))
	if err != nil {
		t.Fatal(err)
	}
	scanned, steps := 0, 0
	for tt := 2.0; tt <= 7200; tt += 2 {
		s.Step(tt, eng.SnapshotAt(tt))
		if _, in := slices.BinarySearch(p.near, s.cur.SatID); !in {
			t.Fatalf("t=%v: pick %d outside the window of %d", tt, s.cur.SatID, len(p.near))
		}
		scanned += len(p.near)
		steps++
	}
	mean := float64(scanned) / float64(steps)
	t.Logf("mean window %.1f of %d satellites (%.1f%%)", mean, c.Size(), 100*mean/float64(c.Size()))
	if mean > 0.10*float64(c.Size()) {
		t.Fatalf("mean window %.1f satellites, want ≤ 10%% of %d", mean, c.Size())
	}
}
