package visibility

// The Surface's two scans must hand out the same rows: the linear scan is
// the oracle, every (ground, satellite) pair through Observer.Visible, and
// every input the footprint index does not cover must degrade to it, never
// to a stale visible set.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cities"
	"repro/internal/constellation"
	"repro/internal/geo"
)

// surfaceGrounds is past IndexMinGrounds: the poles, both labels of the
// dateline, points just shy of both, the shells' inclination band, and
// cities an ocean apart.
func surfaceGrounds() []geo.LatLon {
	return []geo.LatLon{
		{LatDeg: 90}, {LatDeg: 90, LonDeg: 137}, {LatDeg: -90}, {LatDeg: -90, LonDeg: -45},
		{LatDeg: 89.9, LonDeg: 10}, {LatDeg: -89.9, LonDeg: -170},
		{LatDeg: 0, LonDeg: 180}, {LatDeg: 0, LonDeg: -180}, {LatDeg: 53, LonDeg: 180}, {LatDeg: -53, LonDeg: -180},
		{LatDeg: 12, LonDeg: 179.99}, {LatDeg: -12, LonDeg: -179.99},
		{LatDeg: 89.9, LonDeg: 179.99}, {LatDeg: -89.9, LonDeg: -179.99},
		{LatDeg: 0, LonDeg: 0},
		{LatDeg: 51.5, LonDeg: -0.1},     // London
		{LatDeg: -33.9, LonDeg: 151.2},   // Sydney
		{LatDeg: 64.1, LonDeg: -21.9},    // Reykjavik, above the 53° shells
		{LatDeg: 80, LonDeg: 10},         // polar-shell-only coverage
		{LatDeg: 35.68, LonDeg: 139.69},  // Tokyo
		{LatDeg: -23.55, LonDeg: -46.63}, // São Paulo
		{LatDeg: 19.08, LonDeg: 72.88},   // Mumbai
		{LatDeg: 6.52, LonDeg: 3.38},     // Lagos
		{LatDeg: 40.71, LonDeg: -74.01},  // New York
	}
}

// linearRows is the oracle: each ground's visible satellites, ascending.
func linearRows(o *Observer, grounds []geo.LatLon, frame []geo.Vec3) [][]int32 {
	rows := make([][]int32, len(grounds))
	for gi, g := range grounds {
		rows[gi] = []int32{}
		for id, p := range frame {
			if o.Visible(g.ECEF(), id, p) {
				rows[gi] = append(rows[gi], int32(id))
			}
		}
	}
	return rows
}

// scanRows copies the rows of one Scan out of its scratch.
func scanRows(s *Surface, frame []geo.Vec3) [][]int32 {
	var out [][]int32
	s.Scan(frame, func(rows [][]int32) {
		out = make([][]int32, len(rows))
		for gi, row := range rows {
			out[gi] = append([]int32{}, row...)
		}
	})
	return out
}

func checkRows(t *testing.T, label string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, linear scan %d", label, len(got), len(want))
	}
	for gi := range want {
		if !slices.Equal(got[gi], want[gi]) {
			t.Fatalf("%s: ground %d sees %v, linear scan %v", label, gi, got[gi], want[gi])
		}
	}
}

// indexedSurface is NewSurface with the footprint index at any ground count.
func indexedSurface(tb testing.TB, o *Observer, grounds []geo.LatLon) *Surface {
	tb.Helper()
	s := NewSurface(o, grounds)
	if !s.Indexed() {
		s.useIndex(grounds)
	}
	if !s.Indexed() {
		tb.Fatal("surface grounds not indexed")
	}
	return s
}

// orbitalPeriodSec for a 550 km shell (Kepler): the presets' lowest shells
// sit near this altitude, so sweeping [0, period] covers every phase angle.
const orbitalPeriodSec = 5736.0

// TestSurfaceMatchesLinearScan pins the Surface's rows to the linear scan:
// the three presets (Telesat for its polar shell and 10° mask) over one
// orbital period a minute apart and 24 minutes at the 2 s hand-off cadence
// through one pooled index, and every input that sends the Surface to the
// linear scan — at construction or for one frame.
func TestSurfaceMatchesLinearScan(t *testing.T) {
	presets := map[string]func(constellation.Config) (*constellation.Constellation, error){
		"starlink": constellation.StarlinkPhase1, "kuiper": constellation.Kuiper, "telesat": constellation.Telesat,
	}
	for name, build := range presets {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := build(constellation.Config{})
			if err != nil {
				t.Fatal(err)
			}
			obs, grounds := NewObserver(c), surfaceGrounds()
			s := NewSurface(obs, grounds)
			if !s.Indexed() {
				t.Fatal("preset over surface grounds not indexed")
			}
			fine := 720
			if testing.Short() {
				fine = 60
			}
			var times []float64
			for i := 0; 60*float64(i) <= orbitalPeriodSec; i++ {
				times = append(times, 60*float64(i))
			}
			for i := 0; i < fine; i++ {
				times = append(times, 1801+2*float64(i))
			}
			for _, tSec := range times {
				snap := c.Snapshot(tSec)
				checkRows(t, fmt.Sprintf("%s t=%g", name, tSec), scanRows(s, snap), linearRows(obs, grounds, snap))
			}
		})
	}

	c := starlink(t)
	obs, grounds := NewObserver(c), surfaceGrounds()
	snap := c.Snapshot(300)
	// lowered is the snapshot with one satellite in view of New York 50 km
	// below its shell: visible from further out than the boxes assume.
	lowered := slices.Clone(snap)
	ny := linearRows(obs, grounds, snap)[len(grounds)-1]
	lowered[ny[0]] = lowered[ny[0]].Scale(1 - 50/lowered[ny[0]].Norm())
	// nonFinite has a NaN and an infinite coordinate.
	nonFinite := slices.Clone(snap)
	nonFinite[42].X, nonFinite[ny[0]].Z = math.NaN(), math.Inf(1)
	// refused has mixed slant-range limits inside a shell.
	refused := NewObserver(c)
	refused.maxChord2[c.Size()-1] *= 1.01
	elevated := surfaceGrounds()
	elevated[7].AltKm = 2.5

	for _, tc := range []struct {
		name    string
		obs     *Observer
		grounds []geo.LatLon
		frame   []geo.Vec3
		// indexed: whether the Surface draws boxes; framed: whether its
		// index accepts the frame.
		indexed, framed bool
	}{
		{"below the crossover", obs, grounds[:IndexMinGrounds-1], snap, false, true},
		{"at the crossover", obs, grounds[:IndexMinGrounds], snap, true, true},
		{"elevated ground", obs, elevated, snap, false, true},
		{"refused observer", refused, grounds, snap, false, true},
		{"satellite below its shell", obs, grounds, lowered, true, false},
		{"wrong-size frame", obs, grounds, snap[:10], true, false},
		{"non-finite position", obs, grounds, nonFinite, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSurface(tc.obs, tc.grounds)
			if s.Indexed() != tc.indexed {
				t.Fatalf("indexed %v, want %v", s.Indexed(), tc.indexed)
			}
			if ix, err := NewIndex(obs, 0); (ix.Rebuild(tc.frame) == nil) != tc.framed || err != nil {
				t.Fatalf("index accepts the frame: %v, want %v (%v)", !tc.framed, tc.framed, err)
			}
			want := linearRows(tc.obs, tc.grounds, tc.frame)
			checkRows(t, tc.name, scanRows(s, tc.frame), want)
			if tc.name == "satellite below its shell" && !slices.Contains(want[len(want)-1], ny[0]) {
				t.Fatal("the lowered satellite left New York's view: the case tests nothing")
			}
		})
	}

	// fleet freezes a groundless snapshot in every epoch that prices a
	// hand-off: it must cost no scan.
	t.Run("no grounds", func(t *testing.T) {
		s := NewSurface(obs, nil)
		calls := 0
		fn := func(rows [][]int32) {
			if len(rows) != 0 {
				t.Errorf("%d rows for no grounds", len(rows))
			}
			calls++
		}
		if allocs := testing.AllocsPerRun(10, func() { s.Scan(snap[:3], fn) }); allocs != 0 {
			t.Fatalf("a groundless scan allocates %v times", allocs)
		}
		if calls == 0 || len(s.free) != 0 {
			t.Fatalf("fn called %d times, %d scratch scans made", calls, len(s.free))
		}
	})
}

// TestSurfaceConcurrentScans: scans of different frames through one Surface
// at once each get their own scratch and their own frame's rows.
func TestSurfaceConcurrentScans(t *testing.T) {
	c := starlink(t)
	obs, grounds := NewObserver(c), surfaceGrounds()
	s := NewSurface(obs, grounds)
	frames := make([][]geo.Vec3, 8)
	want := make([][][]int32, len(frames))
	for i := range frames {
		frames[i] = c.Snapshot(float64(i) * 97)
		want[i] = linearRows(obs, grounds, frames[i])
	}
	errs := make(chan error, len(frames))
	for i := range frames {
		go func() {
			for k := 0; k < 5; k++ {
				got := scanRows(s, frames[i])
				for gi := range want[i] {
					if !slices.Equal(got[gi], want[i][gi]) {
						errs <- fmt.Errorf("frame %d ground %d: %v, want %v", i, gi, got[gi], want[i][gi])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for range frames {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSurfaceMatchesLinearScan pins the indexed scan to the linear one over
// random Walker constellations, ground sets and cadences: shells of mixed
// altitude, inclination and mask, grounds anywhere including the poles and
// the dateline, a run of instants any step apart. The index serves every
// ground count here, the crossover's few included.
func FuzzSurfaceMatchesLinearScan(f *testing.F) {
	f.Add(int64(1), uint8(6), 0.0, 2.0)
	f.Add(int64(2), uint8(40), 5000.0, 60.0)
	f.Add(int64(3), uint8(1), 86399.0, 0.0)
	f.Add(int64(4), uint8(200), 12.5, 1800.0)
	f.Fuzz(func(t *testing.T, seed int64, nGrounds uint8, t0, stepSec float64) {
		if !(t0 >= 0 && t0 <= 2*86400) || !(stepSec >= 0 && stepSec <= 7200) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		shells := make([]constellation.Shell, 1+rng.Intn(3))
		for i := range shells {
			shells[i] = constellation.Shell{
				Name: "s", AltitudeKm: 300 + rng.Float64()*1500, InclinationDeg: 30 + rng.Float64()*70,
				Planes: 3 + rng.Intn(20), SatsPerPlane: 3 + rng.Intn(24),
				MinElevationDeg: 5 + rng.Float64()*40,
			}
			shells[i].PhaseFactor = rng.Intn(shells[i].Planes)
		}
		c, err := constellation.Build("fuzz", shells, constellation.Config{})
		if err != nil {
			t.Fatal(err)
		}
		grounds := []geo.LatLon{{LatDeg: 90}, {LatDeg: -90, LonDeg: 77}, {LonDeg: 180}, {LatDeg: 3, LonDeg: -180}}
		for len(grounds) < 1+int(nGrounds) {
			grounds = append(grounds, geo.LatLon{LatDeg: 180*rng.Float64() - 90, LonDeg: 360*rng.Float64() - 180})
		}
		grounds = grounds[:1+int(nGrounds)]
		obs := NewObserver(c)
		s := indexedSurface(t, obs, grounds)
		for i := 0; i < 4; i++ {
			tSec := t0 + float64(i)*stepSec
			snap := c.Snapshot(tSec)
			checkRows(t, fmt.Sprintf("t=%g", tSec), scanRows(s, snap), linearRows(obs, grounds, snap))
		}
	})
}

// BenchmarkSurface times the Surface's two scans on the same frames of the
// Starlink preset, by ground count (the N most populous cities) — the
// receipt behind IndexMinGrounds. Frames are propagated outside the timers;
// the primary run is 2 s apart (the hand-off cadence), the second a minute
// apart (the figure and fleet cadence), which a stateless scan must not care
// about. Every indexed scan's rows are checked against the linear one's.
func BenchmarkSurface(b *testing.B) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		b.Fatal(err)
	}
	obs := NewObserver(c)
	const steps = 16
	for _, grounds := range []int{2, 8, 16, 24, 32, 40, 200} {
		b.Run(fmt.Sprintf("grounds=%d", grounds), func(b *testing.B) {
			index := indexedSurface(b, obs, cities.Locations(cities.TopN(grounds)))
			linear := &Surface{obs: obs, grounds: index.grounds}
			idle := func([][]int32) {}
			var ns [2]struct{ index, linear int64 }
			for i := 0; i < b.N; i++ {
				for ci, stepSec := range []float64{2, 60} {
					for k := 0; k < steps; k++ {
						tSec := float64(i*steps+k) * stepSec
						snap := c.Snapshot(tSec)
						start := time.Now()
						index.Scan(snap, idle)
						ns[ci].index += time.Since(start).Nanoseconds()
						start = time.Now()
						linear.Scan(snap, idle)
						ns[ci].linear += time.Since(start).Nanoseconds()
						got, want := scanRows(index, snap), scanRows(linear, snap)
						for gi := range want {
							if !slices.Equal(got[gi], want[gi]) {
								b.Fatalf("t=%g ground %d: indexed and linear scans differ", tSec, gi)
							}
						}
					}
				}
			}
			per := float64(b.N * steps)
			b.ReportMetric(float64(ns[0].index)/per, "index-ns/op")
			b.ReportMetric(float64(ns[0].linear)/per, "linear-ns/op")
			b.ReportMetric(float64(ns[0].linear)/float64(ns[0].index), "index-speedup-x")
			b.ReportMetric(float64(ns[1].index)/per, "index60-ns/op")
			b.ReportMetric(float64(ns[1].linear)/float64(ns[1].index), "index-speedup-60s-x")
		})
	}
}
