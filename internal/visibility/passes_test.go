package visibility

import (
	"math"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
)

func passConst(t *testing.T) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("p", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 8, SatsPerPlane: 8, PhaseFactor: 1, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPassWindowsConsistent(t *testing.T) {
	c := passConst(t)
	o := NewObserver(c)
	g := geo.LatLon{LatDeg: 30, LonDeg: 0}.ECEF()
	prop := c.Satellites[0].Prop

	horizon := 4 * prop.Elements().PeriodSec()
	ws, err := o.PassWindows(g, 0, 0, horizon, 10)
	if err != nil {
		t.Fatal(err)
	}
	prevEnd := -1.0
	for _, w := range ws {
		if w.AOSSec >= w.LOSSec {
			t.Fatalf("inverted window %+v", w)
		}
		if w.AOSSec <= prevEnd {
			t.Fatalf("overlapping windows at %v", w.AOSSec)
		}
		prevEnd = w.LOSSec
		// Midpoint is visible; well outside is not.
		mid := (w.AOSSec + w.LOSSec) / 2
		if !o.Visible(g, 0, prop.ECEFAt(mid)) {
			t.Fatalf("mid-pass not visible: %+v", w)
		}
		// AOS/LOS are genuine boundaries (±2 s flips visibility), except at
		// the scan edges.
		if w.AOSSec > 1 {
			if o.Visible(g, 0, prop.ECEFAt(w.AOSSec-2)) {
				t.Fatalf("visible 2 s before AOS: %+v", w)
			}
		}
		if w.LOSSec < horizon-1 {
			if o.Visible(g, 0, prop.ECEFAt(w.LOSSec+2)) {
				t.Fatalf("visible 2 s after LOS: %+v", w)
			}
		}
		// Culmination lies inside the window above the mask.
		if w.MaxElevationSec < w.AOSSec || w.MaxElevationSec > w.LOSSec {
			t.Fatalf("culmination outside window: %+v", w)
		}
		if w.MaxElevationDeg < 25-0.5 {
			t.Fatalf("culmination below mask: %+v", w)
		}
		// LEO passes last minutes, not hours.
		if w.DurationSec() > 900 {
			t.Fatalf("pass too long: %+v", w)
		}
	}
}

func TestPassWindowsValidation(t *testing.T) {
	c := passConst(t)
	o := NewObserver(c)
	g := geo.LatLon{}.ECEF()
	if _, err := o.PassWindows(g, -1, 0, 100, 10); err == nil {
		t.Fatal("bad sat accepted")
	}
	if _, err := o.PassWindows(g, 0, 0, 0, 10); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := o.PassWindows(g, 0, 0, 100, 0); err == nil {
		t.Fatal("zero step accepted")
	}
	// A NaN or infinite end used to scan forever.
	nan, inf := math.NaN(), math.Inf(1)
	for _, a := range [][3]float64{
		{nan, 100, 10}, {inf, 100, 10}, {0, nan, 10}, {0, inf, 10}, {0, 100, nan}, {0, 100, inf},
	} {
		if _, err := o.PassWindows(g, 0, a[0], a[1], a[2]); err == nil {
			t.Fatalf("PassWindows(t0=%v, horizon=%v, step=%v) accepted", a[0], a[1], a[2])
		}
		if _, _, err := o.NextPassAny(g, a[0], a[1], a[2]); err == nil {
			t.Fatalf("NextPassAny(t0=%v, horizon=%v, step=%v) accepted", a[0], a[1], a[2])
		}
	}
}

// TestNextPass: a satellite's next pass over a site is PassWindows' first
// window, inside the horizon; a site the shell never reaches has none.
func TestNextPass(t *testing.T) {
	c := passConst(t)
	o := NewObserver(c)
	g := geo.LatLon{LatDeg: 30, LonDeg: 0}.ECEF()
	prop := c.Satellites[0].Prop
	horizon := 6 * prop.Elements().PeriodSec()

	ws, err := o.PassWindows(g, 0, 0, horizon, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Skip("satellite 0 never passes this site within the horizon")
	}
	if w := ws[0]; w.AOSSec < 0 || w.LOSSec > horizon {
		t.Fatalf("window out of range: %+v", w)
	}
	// A polar site with a 53° shell never sees a pass.
	pole := geo.LatLon{LatDeg: 89}.ECEF()
	ws, err = o.PassWindows(pole, 0, 0, horizon, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 0 {
		t.Fatal("pole should see no pass")
	}
}

func TestNextPassAny(t *testing.T) {
	c := passConst(t)
	o := NewObserver(c)
	g := geo.LatLon{LatDeg: 20, LonDeg: 40}.ECEF()
	w, ok, err := o.NextPassAny(g, 0, 2*5739, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("sparse toy constellation never covers this site in 2 orbits")
	}
	if w.DurationSec() <= 0 {
		t.Fatalf("degenerate window %+v", w)
	}
	// The returned window's midpoint must indeed be covered by that sat.
	prop := c.Satellites[w.SatID].Prop
	mid := (w.AOSSec + w.LOSSec) / 2
	if !o.Visible(g, w.SatID, prop.ECEFAt(mid)) {
		t.Fatalf("NextPassAny window not actually visible: %+v", w)
	}
	if _, _, err := o.NextPassAny(g, 0, 0, 30); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestPassDurationMatchesGeometry(t *testing.T) {
	// An overhead pass of a 550 km / 25°-mask satellite lasts roughly
	// 2·α/ω where α=8.45° and the angular rate relative to the ground is
	// ~0.068°/s → ≈250 s. Verify culminating passes land in that ballpark.
	c := passConst(t)
	o := NewObserver(c)
	g := geo.LatLon{LatDeg: 30, LonDeg: 0}.ECEF()
	found := false
	for sat := 0; sat < c.Size() && !found; sat++ {
		ws, err := o.PassWindows(g, sat, 0, 3*5739, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			if w.MaxElevationDeg > 80 { // near-overhead pass
				if w.DurationSec() < 180 || w.DurationSec() > 330 {
					t.Fatalf("overhead pass duration %v s, want ≈250", w.DurationSec())
				}
				found = true
			}
		}
	}
	if !found {
		t.Skip("no near-overhead pass in the sampled window")
	}
}
