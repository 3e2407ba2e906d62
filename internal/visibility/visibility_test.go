package visibility

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/units"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestElevationOverhead(t *testing.T) {
	g := geo.LatLon{LatDeg: 10, LonDeg: 20}.ECEF()
	sat := g.Unit().Scale(units.EarthRadiusKm + 550)
	if got := ElevationDeg(g, sat); !almostEq(got, 90, 1e-6) {
		t.Fatalf("overhead elevation = %v, want 90", got)
	}
}

func TestElevationHorizonAndBelow(t *testing.T) {
	g := geo.LatLon{LatDeg: 0, LonDeg: 0}.ECEF()
	// A satellite at the same radius 90° away sits well below the horizon.
	below := geo.LatLon{LatDeg: 0, LonDeg: 90, AltKm: 550}.ECEF()
	if got := ElevationDeg(g, below); got >= 0 {
		t.Fatalf("far satellite elevation = %v, want negative", got)
	}
}

func TestElevationKnownGeometry(t *testing.T) {
	// Place a satellite so the analytic elevation is recoverable: ground at
	// equator/prime-meridian, satellite at altitude h and central angle α.
	// tan(el) = (cos α − Re/(Re+h)) / sin α.
	g := geo.LatLon{LatDeg: 0, LonDeg: 0}.ECEF()
	for _, tc := range []struct{ alphaDeg, altKm float64 }{
		{5, 550}, {8, 550}, {10, 1110}, {15, 1325},
	} {
		sat := geo.LatLon{LatDeg: 0, LonDeg: tc.alphaDeg, AltKm: tc.altKm}.ECEF()
		alpha := units.Deg2Rad(tc.alphaDeg)
		re := units.EarthRadiusKm
		want := units.Rad2Deg(math.Atan2(math.Cos(alpha)-re/(re+tc.altKm), math.Sin(alpha)))
		if got := ElevationDeg(g, sat); !almostEq(got, want, 1e-6) {
			t.Fatalf("α=%v h=%v: elevation %v, want %v", tc.alphaDeg, tc.altKm, got, want)
		}
	}
}

func TestMaxSlantRangeKnownValues(t *testing.T) {
	tests := []struct {
		alt, elev, want, tol float64
	}{
		// Zenith-limit: at 90° elevation the slant range is the altitude.
		{550, 90, 550, 1e-6},
		{1110, 90, 1110, 1e-6},
		// Starlink 550 km at 25° mask: ≈1,123 km (drives the ~7.5 ms
		// worst-case RTT for the low shell).
		{550, 25, 1123, 5},
		// The paper's 16 ms farthest-reachable RTT corresponds to the
		// 1325 km shell at 25°: ≈2,396 km slant → 2×2396/c ≈ 16 ms.
		{1325, 25, 2396, 5},
	}
	for _, tc := range tests {
		if got := MaxSlantRangeKm(tc.alt, tc.elev); !almostEq(got, tc.want, tc.tol) {
			t.Errorf("MaxSlantRangeKm(%v,%v) = %v, want %v±%v", tc.alt, tc.elev, got, tc.want, tc.tol)
		}
	}
}

func TestFarthestRTTMatchesPaper(t *testing.T) {
	// Fig 1: even the farthest directly reachable Starlink satellite is
	// within 16 ms RTT. The bound comes from the highest shell at the mask.
	d := MaxSlantRangeKm(1325, 25)
	rtt := units.RTTMs(d)
	if rtt < 15 || rtt > 17 {
		t.Fatalf("worst-case Starlink RTT = %.1f ms, want ≈16", rtt)
	}
}

func TestCoverageCentralAngle(t *testing.T) {
	// At the coverage-edge central angle, the elevation equals the mask.
	for _, tc := range []struct{ alt, elev float64 }{{550, 25}, {630, 35}, {1325, 25}, {1015, 10}} {
		alpha := CoverageCentralAngleRad(tc.alt, tc.elev)
		g := geo.LatLon{LatDeg: 0, LonDeg: 0}.ECEF()
		sat := geo.LatLon{LatDeg: 0, LonDeg: units.Rad2Deg(alpha), AltKm: tc.alt}.ECEF()
		if got := ElevationDeg(g, sat); !almostEq(got, tc.elev, 1e-6) {
			t.Fatalf("alt %v mask %v: edge elevation %v", tc.alt, tc.elev, got)
		}
		// And the chord at the edge equals MaxSlantRangeKm.
		if got := g.Distance(sat); !almostEq(got, MaxSlantRangeKm(tc.alt, tc.elev), 1e-6) {
			t.Fatalf("edge slant %v vs MaxSlantRangeKm %v", got, MaxSlantRangeKm(tc.alt, tc.elev))
		}
	}
}

func testConstellation(t *testing.T) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("test", []constellation.Shell{
		{Name: "low", AltitudeKm: 550, InclinationDeg: 53, Planes: 12, SatsPerPlane: 12, PhaseFactor: 1, MinElevationDeg: 25},
		{Name: "high", AltitudeKm: 1325, InclinationDeg: 70, Planes: 4, SatsPerPlane: 10, PhaseFactor: 1, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestObserverVisibleMatchesElevation(t *testing.T) {
	c := testConstellation(t)
	o := NewObserver(c)
	snap := c.Snapshot(300)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		g := geo.LatLon{LatDeg: r.Float64()*120 - 60, LonDeg: r.Float64()*360 - 180}.ECEF()
		for id, sat := range snap {
			el := ElevationDeg(g, sat)
			mask := c.Shells[c.Satellites[id].ShellIndex].MinElevationDeg
			got := o.Visible(g, id, sat)
			want := el >= mask
			// Tolerate disagreement only within numerical slack of the mask.
			if got != want && math.Abs(el-mask) > 1e-6 {
				t.Fatalf("Visible=%v but elevation=%v mask=%v", got, el, mask)
			}
		}
	}
}

func TestReachableConsistency(t *testing.T) {
	c := testConstellation(t)
	o := NewObserver(c)
	snap := c.Snapshot(120)
	g := geo.LatLon{LatDeg: 30, LonDeg: -100}.ECEF()

	passes := o.Reachable(g, snap, nil)
	if got := o.CountReachable(g, snap); got != len(passes) {
		t.Fatalf("CountReachable=%d, len(Reachable)=%d", got, len(passes))
	}
	for _, p := range passes {
		if p.ElevationDeg < c.Shells[c.Satellites[p.SatID].ShellIndex].MinElevationDeg-1e-9 {
			t.Fatalf("pass below mask: %+v", p)
		}
		if !almostEq(p.RTTMs, units.RTTMs(p.SlantKm), 1e-12) {
			t.Fatalf("RTT inconsistent: %+v", p)
		}
		if !almostEq(p.SlantKm, g.Distance(snap[p.SatID]), 1e-9) {
			t.Fatalf("slant inconsistent: %+v", p)
		}
	}
}

func TestNearestFarthestAgainstPasses(t *testing.T) {
	c := testConstellation(t)
	o := NewObserver(c)
	snap := c.Snapshot(45)
	g := geo.LatLon{LatDeg: 40, LonDeg: 10}.ECEF()

	passes := o.Reachable(g, snap, nil)
	near, far, ok := o.NearestFarthest(g, snap)
	if !ok {
		if len(passes) != 0 {
			t.Fatal("NearestFarthest says none reachable but passes exist")
		}
		return
	}
	minP, maxP := math.Inf(1), math.Inf(-1)
	for _, p := range passes {
		minP = math.Min(minP, p.SlantKm)
		maxP = math.Max(maxP, p.SlantKm)
	}
	if !almostEq(near, minP, 1e-9) || !almostEq(far, maxP, 1e-9) {
		t.Fatalf("NearestFarthest (%v,%v) vs passes (%v,%v)", near, far, minP, maxP)
	}

	id, slant, ok := o.Nearest(g, snap)
	if !ok || !almostEq(slant, minP, 1e-9) {
		t.Fatalf("Nearest = (%d,%v,%v), want slant %v", id, slant, ok, minP)
	}
}

func TestNearestNoneReachable(t *testing.T) {
	// A pole observer with an equatorial-only constellation sees nothing.
	c, err := constellation.Build("eq", []constellation.Shell{
		{Name: "eq", AltitudeKm: 550, InclinationDeg: 0, Planes: 1, SatsPerPlane: 20, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver(c)
	snap := c.Snapshot(0)
	g := geo.LatLon{LatDeg: 89, LonDeg: 0}.ECEF()
	if _, _, ok := o.NearestFarthest(g, snap); ok {
		t.Fatal("pole observer should not reach equatorial satellites")
	}
	if _, _, ok := o.Nearest(g, snap); ok {
		t.Fatal("Nearest should report none reachable")
	}
	if n := o.CountReachable(g, snap); n != 0 {
		t.Fatalf("CountReachable = %d, want 0", n)
	}
}

func TestObserverWithMaskMonotonic(t *testing.T) {
	// A stricter (higher) mask never increases the reachable count.
	c := testConstellation(t)
	snap := c.Snapshot(200)
	g := geo.LatLon{LatDeg: 25, LonDeg: 45}.ECEF()
	prev := math.MaxInt
	for _, mask := range []float64{5, 15, 25, 35, 45} {
		o := NewObserverWithMask(c, mask)
		n := o.CountReachable(g, snap)
		if n > prev {
			t.Fatalf("reachable count increased with stricter mask %v: %d > %d", mask, n, prev)
		}
		prev = n
	}
}

func TestPropertySlantWithinBounds(t *testing.T) {
	// Every reachable pass has slant range within [altitude, MaxSlantRange].
	c := testConstellation(t)
	o := NewObserver(c)
	f := func(tSeed, latSeed, lonSeed float64) bool {
		tt := math.Mod(math.Abs(tSeed), 7200)
		lat := math.Mod(latSeed, 90)
		lon := math.Mod(lonSeed, 180)
		if math.IsNaN(tt + lat + lon) {
			return true
		}
		snap := c.Snapshot(tt)
		g := geo.LatLon{LatDeg: lat, LonDeg: lon}.ECEF()
		for _, p := range o.Reachable(g, snap, nil) {
			sh := c.Shells[c.Satellites[p.SatID].ShellIndex]
			if p.SlantKm < sh.AltitudeKm-1e-6 {
				return false
			}
			if p.SlantKm > MaxSlantRangeKm(sh.AltitudeKm, sh.MinElevationDeg)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStarlinkReachableCountsSanity(t *testing.T) {
	// Fig 2 shape: from a mid-latitude point, several tens of Starlink P1
	// satellites are reachable.
	if testing.Short() {
		t.Skip("full constellation test")
	}
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver(c)
	snap := c.Snapshot(0)
	n := o.CountReachable(geo.LatLon{LatDeg: 30, LonDeg: 50}.ECEF(), snap)
	if n < 20 || n > 120 {
		t.Fatalf("Starlink reachable at 30°N = %d, want tens", n)
	}
}

// TestReachableDstContract pins the documented append/reuse semantics of
// the dst parameter: nil allocates, a recycled prefix reuses the backing
// array without touching existing elements, and the result aliases dst when
// capacity suffices.
func TestReachableDstContract(t *testing.T) {
	c := testConstellation(t)
	o := NewObserver(c)
	snap := c.Snapshot(120)
	g := geo.LatLon{LatDeg: 30, LonDeg: -100}.ECEF()

	fresh := o.Reachable(g, snap, nil)
	if len(fresh) == 0 {
		t.Fatal("no passes from mid-latitude point")
	}

	// Reuse: recycling the same buffer must produce identical passes with
	// zero growth once warm, and the result must alias the buffer.
	buf := make([]Pass, 0, len(fresh))
	got := o.Reachable(g, snap, buf)
	if len(got) != len(fresh) {
		t.Fatalf("recycled query found %d passes, fresh found %d", len(got), len(fresh))
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("result does not alias the recycled buffer despite sufficient capacity")
	}
	for i := range fresh {
		if got[i] != fresh[i] {
			t.Fatalf("pass %d differs between fresh and recycled query", i)
		}
	}

	// Append: existing elements must survive untouched, new passes follow.
	sentinel := Pass{SatID: -7, SlantKm: 1, ElevationDeg: 2, RTTMs: 3}
	withPrefix := o.Reachable(g, snap, []Pass{sentinel})
	if len(withPrefix) != len(fresh)+1 {
		t.Fatalf("append query has %d passes, want %d", len(withPrefix), len(fresh)+1)
	}
	if withPrefix[0] != sentinel {
		t.Fatalf("existing dst element modified: %+v", withPrefix[0])
	}
	for i := range fresh {
		if withPrefix[i+1] != fresh[i] {
			t.Fatalf("appended pass %d differs", i)
		}
	}

	// Order: ascending satellite ID, per the doc comment.
	for i := 1; i < len(fresh); i++ {
		if fresh[i].SatID <= fresh[i-1].SatID {
			t.Fatalf("passes not in ascending ID order at %d: %d after %d", i, fresh[i].SatID, fresh[i-1].SatID)
		}
	}

	// No allocation once the buffer is warm.
	allocs := testing.AllocsPerRun(20, func() {
		buf = o.Reachable(g, snap, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("recycled Reachable allocates %.1f times per run, want 0", allocs)
	}
}
