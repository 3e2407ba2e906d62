package orbit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/units"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustProp(t *testing.T, e Elements, opts Options) *Propagator {
	t.Helper()
	p, err := NewPropagator(e, opts)
	if err != nil {
		t.Fatalf("NewPropagator(%+v): %v", e, err)
	}
	return p
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		e       Elements
		wantErr bool
	}{
		{"starlink", Elements{AltitudeKm: 550, InclinationDeg: 53}, false},
		{"polar", Elements{AltitudeKm: 1015, InclinationDeg: 98.98}, false},
		{"zero-alt", Elements{AltitudeKm: 0, InclinationDeg: 53}, true},
		{"neg-alt", Elements{AltitudeKm: -10, InclinationDeg: 53}, true},
		{"bad-inc", Elements{AltitudeKm: 550, InclinationDeg: 190}, true},
		{"nan-alt", Elements{AltitudeKm: math.NaN(), InclinationDeg: 53}, true},
		{"inf-alt", Elements{AltitudeKm: math.Inf(1), InclinationDeg: 53}, true},
		{"nan-inc", Elements{AltitudeKm: 550, InclinationDeg: math.NaN()}, true},
		{"nan-raan", Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: math.NaN()}, true},
		{"inf-raan", Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: math.Inf(-1)}, true},
		{"nan-arglat", Elements{AltitudeKm: 550, InclinationDeg: 53, ArgLatDeg: math.NaN()}, true},
		{"inf-arglat", Elements{AltitudeKm: 550, InclinationDeg: 53, ArgLatDeg: math.Inf(1)}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.e.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() err=%v, wantErr=%v", err, tc.wantErr)
			}
			if tc.wantErr {
				if _, err := NewPropagator(tc.e, Options{}); err == nil {
					t.Fatal("NewPropagator should reject invalid elements")
				}
			}
		})
	}
}

func TestRadiusConstant(t *testing.T) {
	p := mustProp(t, Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 10, ArgLatDeg: 77}, Options{})
	want := units.EarthRadiusKm + 550
	for _, tt := range []float64{0, 100, 1000, 5739, 86400} {
		if got := p.ECIAt(tt).Norm(); !almostEq(got, want, 1e-6) {
			t.Fatalf("|ECI(%v)| = %v, want %v", tt, got, want)
		}
		if got := p.ECEFAt(tt).Norm(); !almostEq(got, want, 1e-6) {
			t.Fatalf("|ECEF(%v)| = %v, want %v", tt, got, want)
		}
	}
}

func TestPeriodicityECI(t *testing.T) {
	e := Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 42, ArgLatDeg: 13}
	p := mustProp(t, e, Options{})
	period := e.PeriodSec()
	a := p.ECIAt(123)
	b := p.ECIAt(123 + period)
	if a.Distance(b) > 1e-6 {
		t.Fatalf("ECI not periodic: moved %v km over one period", a.Distance(b))
	}
}

func TestInclinationBoundsLatitude(t *testing.T) {
	// |latitude of subpoint| never exceeds inclination (prograde orbits).
	e := Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 0, ArgLatDeg: 0}
	p := mustProp(t, e, Options{})
	for tt := 0.0; tt < 2*e.PeriodSec(); tt += 10 {
		lat := geo.FromECEF(p.ECEFAt(tt)).LatDeg
		if math.Abs(lat) > 53.0001 {
			t.Fatalf("subpoint latitude %v exceeds inclination at t=%v", lat, tt)
		}
	}
}

func TestLatitudeReachesInclination(t *testing.T) {
	e := Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 0, ArgLatDeg: 0}
	p := mustProp(t, e, Options{})
	maxLat := 0.0
	for tt := 0.0; tt < e.PeriodSec(); tt += 5 {
		if lat := math.Abs(geo.FromECEF(p.ECEFAt(tt)).LatDeg); lat > maxLat {
			maxLat = lat
		}
	}
	if maxLat < 52.5 {
		t.Fatalf("max |latitude| = %v, should approach inclination 53", maxLat)
	}
}

func TestEquatorialOrbitStaysEquatorial(t *testing.T) {
	e := Elements{AltitudeKm: 800, InclinationDeg: 0}
	p := mustProp(t, e, Options{})
	for tt := 0.0; tt < e.PeriodSec(); tt += 60 {
		if z := p.ECIAt(tt).Z; math.Abs(z) > 1e-9 {
			t.Fatalf("equatorial orbit left the equator: z=%v at t=%v", z, tt)
		}
	}
}

func TestAscendingNodeStart(t *testing.T) {
	// At ArgLat 0, the satellite sits on the ascending node: latitude 0,
	// moving north.
	e := Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 30, ArgLatDeg: 0}
	p := mustProp(t, e, Options{})
	at0 := p.ECIAt(0)
	if !almostEq(at0.Z, 0, 1e-9) {
		t.Fatalf("z at ascending node = %v, want 0", at0.Z)
	}
	if p.ECIAt(1).Z <= 0 {
		t.Fatal("satellite should be moving north at the ascending node")
	}
	// And the node itself is at longitude = RAAN when frames coincide.
	ll := geo.FromECEF(at0)
	if !almostEq(ll.LonDeg, 30, 1e-6) {
		t.Fatalf("ascending node longitude = %v, want 30", ll.LonDeg)
	}
}

func TestSpeedMatchesCircularVelocity(t *testing.T) {
	e := Elements{AltitudeKm: 550, InclinationDeg: 53}
	p := mustProp(t, e, Options{})
	dt := 0.1
	v := p.ECIAt(dt).Sub(p.ECIAt(0)).Norm() / dt
	if !almostEq(v, units.OrbitalVelocityKmS(e.AltitudeKm), 0.01) {
		t.Fatalf("numeric speed %v, want %v", v, units.OrbitalVelocityKmS(e.AltitudeKm))
	}
}

func TestECEFDriftsWestward(t *testing.T) {
	// In the Earth-fixed frame an equatorial-prograde satellite still moves
	// east (orbital motion beats Earth rotation at LEO), but slower than in
	// ECI. Check the relative rate is orbital minus Earth rate.
	e := Elements{AltitudeKm: 550, InclinationDeg: 0}
	p := mustProp(t, e, Options{})
	dt := 10.0
	lon0 := geo.FromECEF(p.ECEFAt(0)).LonDeg
	lon1 := geo.FromECEF(p.ECEFAt(dt)).LonDeg
	gotRate := units.Deg2Rad(lon1-lon0) / dt
	wantRate := e.MeanMotionRadS() - units.EarthRotationRadS
	if !almostEq(gotRate, wantRate, 1e-6) {
		t.Fatalf("ECEF angular rate %v, want %v", gotRate, wantRate)
	}
}

func TestJ2RegressionDirection(t *testing.T) {
	// Prograde orbits regress westward (negative RAAN rate); retrograde
	// (sun-synchronous-like) orbits precess eastward.
	pro := Elements{AltitudeKm: 550, InclinationDeg: 53}
	retro := Elements{AltitudeKm: 1015, InclinationDeg: 98.98}
	if pro.J2NodalRateRadS() >= 0 {
		t.Fatal("prograde J2 nodal rate should be negative")
	}
	if retro.J2NodalRateRadS() <= 0 {
		t.Fatal("retrograde J2 nodal rate should be positive")
	}
}

func TestJ2MagnitudeStarlink(t *testing.T) {
	// For 550 km / 53°, nodal regression is about -5°/day.
	e := Elements{AltitudeKm: 550, InclinationDeg: 53}
	degPerDay := units.Rad2Deg(e.J2NodalRateRadS()) * 86400
	if degPerDay > -4 || degPerDay < -6 {
		t.Fatalf("J2 regression = %v °/day, want ≈ -5", degPerDay)
	}
}

func TestJ2OptionChangesTrajectory(t *testing.T) {
	e := Elements{AltitudeKm: 550, InclinationDeg: 53}
	plain := mustProp(t, e, Options{})
	j2 := mustProp(t, e, Options{J2: true})
	// After a day the RAAN drift displaces the satellite by hundreds of km.
	d := plain.ECIAt(86400).Distance(j2.ECIAt(86400))
	if d < 100 {
		t.Fatalf("J2 option had too little effect: %v km after one day", d)
	}
	// At epoch they agree exactly.
	if plain.ECIAt(0).Distance(j2.ECIAt(0)) != 0 {
		t.Fatal("J2 option should not change the epoch position")
	}
}

func TestEclipseFractionRange(t *testing.T) {
	sun := geo.Vec3{X: 1} // sun along +X
	e := Elements{AltitudeKm: 550, InclinationDeg: 53}
	p := mustProp(t, e, Options{})
	f := p.EclipseFraction(sun, 5)
	// LEO at 550 km spends roughly 30-40% of each orbit in shadow when the
	// orbit plane contains the sun vector; never more than half.
	if f <= 0.2 || f >= 0.5 {
		t.Fatalf("eclipse fraction = %v, want in (0.2, 0.5)", f)
	}
}

func TestEclipseNoneWhenOrbitFaceOn(t *testing.T) {
	// Sun along +Z, equatorial orbit: the orbit plane is perpendicular to
	// the sun direction... the satellite circles the terminator and, at
	// altitude, stays in sunlight the whole orbit.
	sun := geo.Vec3{Z: 1}
	e := Elements{AltitudeKm: 550, InclinationDeg: 0}
	p := mustProp(t, e, Options{})
	if f := p.EclipseFraction(sun, 5); f != 0 {
		t.Fatalf("face-on orbit eclipse fraction = %v, want 0", f)
	}
}

func TestInShadowGeometry(t *testing.T) {
	sun := geo.Vec3{X: 1}
	e := Elements{AltitudeKm: 550, InclinationDeg: 0, ArgLatDeg: 180}
	p := mustProp(t, e, Options{})
	// ArgLat 180 with RAAN 0 puts the satellite at -X: directly anti-solar,
	// inside the shadow cylinder.
	if !p.InShadowAt(0, sun) {
		t.Fatal("satellite at anti-solar point should be in shadow")
	}
	// ArgLat 0 puts it at +X: sunlit.
	e2 := Elements{AltitudeKm: 550, InclinationDeg: 0, ArgLatDeg: 0}
	p2 := mustProp(t, e2, Options{})
	if p2.InShadowAt(0, sun) {
		t.Fatal("satellite at sub-solar point should be sunlit")
	}
}

func TestPropertyRadiusInvariant(t *testing.T) {
	f := func(altSeed, incSeed, raanSeed, argSeed, tSeed float64) bool {
		alt := 300 + math.Mod(math.Abs(altSeed), 1700)
		inc := math.Mod(math.Abs(incSeed), 180)
		raan := math.Mod(math.Abs(raanSeed), 360)
		arg := math.Mod(math.Abs(argSeed), 360)
		tt := math.Mod(math.Abs(tSeed), 1e5)
		if math.IsNaN(alt + inc + raan + arg + tt) {
			return true
		}
		p, err := NewPropagator(Elements{AltitudeKm: alt, InclinationDeg: inc, RAANDeg: raan, ArgLatDeg: arg}, Options{J2: true})
		if err != nil {
			return false
		}
		want := units.EarthRadiusKm + alt
		return almostEq(p.ECEFAt(tt).Norm(), want, 1e-6*want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestElementsAccessors(t *testing.T) {
	e := Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 10, ArgLatDeg: 20}
	p := mustProp(t, e, Options{})
	if p.Elements() != e {
		t.Fatalf("Elements() = %+v, want %+v", p.Elements(), e)
	}
	if !almostEq(e.SemiMajorAxisKm(), units.EarthRadiusKm+550, 1e-9) {
		t.Fatal("SemiMajorAxisKm mismatch")
	}
	if !almostEq(e.MeanMotionRadS(), 2*math.Pi/e.PeriodSec(), 1e-15) {
		t.Fatal("MeanMotionRadS mismatch")
	}
}

func TestManySatellitesDistinctPositions(t *testing.T) {
	// Two satellites with different phases never coincide.
	r := rand.New(rand.NewSource(7))
	base := Elements{AltitudeKm: 550, InclinationDeg: 53}
	for i := 0; i < 50; i++ {
		a, b := base, base
		a.ArgLatDeg = r.Float64() * 360
		b.ArgLatDeg = a.ArgLatDeg + 10 + r.Float64()*340
		pa := mustProp(t, a, Options{})
		pb := mustProp(t, b, Options{})
		if pa.ECIAt(0).Distance(pb.ECIAt(0)) < 100 {
			t.Fatalf("satellites too close: args %v vs %v", a.ArgLatDeg, b.ArgLatDeg)
		}
	}
}

func TestECIVelocityAnalytic(t *testing.T) {
	e := Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 40, ArgLatDeg: 10}
	p := mustProp(t, e, Options{})
	for _, tt := range []float64{0, 100, 2500} {
		v := p.ECIVelocityAt(tt)
		// Speed equals the circular orbital velocity.
		if !almostEq(v.Norm(), units.OrbitalVelocityKmS(e.AltitudeKm), 1e-9) {
			t.Fatalf("speed %v, want %v", v.Norm(), units.OrbitalVelocityKmS(e.AltitudeKm))
		}
		// Velocity is perpendicular to the radius (circular orbit).
		r := p.ECIAt(tt)
		if math.Abs(v.Dot(r)) > 1e-6 {
			t.Fatalf("velocity not tangential at t=%v: v·r=%v", tt, v.Dot(r))
		}
		// Matches the numeric derivative.
		h := 0.01
		num := p.ECIAt(tt + h).Sub(p.ECIAt(tt - h)).Scale(1 / (2 * h))
		if num.Sub(v).Norm() > 1e-3 {
			t.Fatalf("numeric/analytic velocity mismatch: %v vs %v", num, v)
		}
	}
}

func TestECEFVelocityNumeric(t *testing.T) {
	e := Elements{AltitudeKm: 1110, InclinationDeg: 53.8, RAANDeg: 77, ArgLatDeg: 200}
	p := mustProp(t, e, Options{})
	for _, tt := range []float64{0, 333, 5000} {
		v := p.ECEFVelocityAt(tt)
		h := 0.01
		num := p.ECEFAt(tt + h).Sub(p.ECEFAt(tt - h)).Scale(1 / (2 * h))
		if num.Sub(v).Norm() > 1e-3 {
			t.Fatalf("t=%v: ECEF velocity %v vs numeric %v", tt, v, num)
		}
	}
}

func TestECEFSpeedBelowECISpeed(t *testing.T) {
	// A prograde equatorial orbit moves with the Earth's rotation: its
	// ground-relative speed is lower than its inertial speed.
	e := Elements{AltitudeKm: 550, InclinationDeg: 0}
	p := mustProp(t, e, Options{})
	if p.ECEFVelocityAt(0).Norm() >= p.ECIVelocityAt(0).Norm() {
		t.Fatal("prograde equatorial ECEF speed should be below ECI speed")
	}
}

// TestMaxECEFSpeedBoundsVelocity: MaxECEFSpeedKmS bounds the Earth-fixed
// speed, analytic and numeric, over a whole period with J2 on, for prograde,
// polar and retrograde planes.
func TestMaxECEFSpeedBoundsVelocity(t *testing.T) {
	for _, e := range []Elements{
		{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 10, ArgLatDeg: 30},
		{AltitudeKm: 1015, InclinationDeg: 98.98, RAANDeg: 200},
		{AltitudeKm: 340, InclinationDeg: 0},
		{AltitudeKm: 1325, InclinationDeg: 150, ArgLatDeg: 270},
	} {
		p := mustProp(t, e, Options{J2: true})
		vmax := p.MaxECEFSpeedKmS()
		for tt := 0.0; tt <= e.PeriodSec(); tt += 7 {
			h := 0.01
			num := p.ECEFAt(tt + h).Sub(p.ECEFAt(tt - h)).Scale(1 / (2 * h)).Norm()
			if v := p.ECEFVelocityAt(tt).Norm(); v > vmax || num > vmax {
				t.Fatalf("%+v t=%v: speed %v (numeric %v) above bound %v", e, tt, v, num, vmax)
			}
		}
	}
}

// propsFor builds one propagator per element set.
func propsFor(t testing.TB, elems []Elements, opts Options) []*Propagator {
	props := make([]*Propagator, len(elems))
	for i, e := range elems {
		p, err := NewPropagator(e, opts)
		if err != nil {
			t.Fatalf("NewPropagator(%+v): %v", e, err)
		}
		props[i] = p
	}
	return props
}

// FuzzFrameMatchesECEFAt: the frame kernel fills every position bit for bit
// as ECEFAt does, for random planes whose members share or differ in RAAN by
// a bit, with J2 on and off.
func FuzzFrameMatchesECEFAt(f *testing.F) {
	f.Add(550.0, 53.0, 0.0, 10.0, 0.0, uint8(6), false)
	f.Add(1110.0, 98.98, 359.5, 7.0, -1234.5, uint8(9), true)
	f.Add(340.0, 0.0, math.Copysign(0, -1), 90.0, 1e7, uint8(4), true)
	f.Fuzz(func(t *testing.T, alt, inc, raan, argStep, tSec float64, n uint8, j2 bool) {
		base := Elements{AltitudeKm: alt, InclinationDeg: inc, RAANDeg: raan}
		if base.Validate() != nil || !units.Finite(argStep, tSec) || math.Abs(tSec) > 1e9 {
			t.Skip()
		}
		var elems []Elements
		for k := 0; k < int(n%16)+1; k++ {
			e := base
			e.ArgLatDeg = float64(k) * argStep
			switch k % 4 {
			case 2: // a different plane
				e.RAANDeg = raan + 1
			case 3: // the same RAAN one bit away, or the other zero
				e.RAANDeg = math.Nextafter(raan, math.Inf(1))
				if raan == 0 {
					e.RAANDeg = math.Copysign(0, -math.Copysign(1, raan))
				}
			}
			if e.Validate() != nil {
				t.Skip()
			}
			elems = append(elems, e)
		}
		props := propsFor(t, elems, Options{J2: j2})
		got := make([]geo.Vec3, len(props))
		ECEFInto(props, tSec, got)
		for i, p := range props {
			if want := p.ECEFAt(tSec); !sameBits(got[i], want) {
				t.Fatalf("sat %d t=%v: kernel %v, ECEFAt %v", i, tSec, got[i], want)
			}
		}
	})
}

// sameBits reports whether two positions are equal bit for bit (so -0 ≠ +0).
func sameBits(a, b geo.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}
