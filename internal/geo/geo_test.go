package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randLatLon(r *rand.Rand) LatLon {
	return LatLon{
		LatDeg: r.Float64()*180 - 90,
		LonDeg: r.Float64()*360 - 180,
	}
}

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{X: 5, Y: -3, Z: 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{X: -3, Y: 7, Z: -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{X: 2, Y: 4, Z: 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestUnitLength(t *testing.T) {
	v := Vec3{10, -20, 5}.Unit()
	if !almostEq(v.Norm(), 1, 1e-12) {
		t.Fatalf("Unit().Norm() = %v", v.Norm())
	}
	zero := Vec3{}
	if zero.Unit() != zero {
		t.Fatal("Unit of zero vector should be zero")
	}
}

func TestRotateZQuarterTurn(t *testing.T) {
	v := Vec3{1, 0, 5}.RotateZ(math.Pi / 2)
	if !almostEq(v.X, 0, 1e-12) || !almostEq(v.Y, 1, 1e-12) || v.Z != 5 {
		t.Fatalf("RotateZ(π/2) = %v", v)
	}
}

func TestRotateZPreservesNorm(t *testing.T) {
	f := func(x, y, z, ang float64) bool {
		if math.IsNaN(x+y+z+ang) || math.IsInf(x+y+z+ang, 0) {
			return true
		}
		x, y, z = math.Mod(x, 1e6), math.Mod(y, 1e6), math.Mod(z, 1e6)
		v := Vec3{x, y, z}
		return almostEq(v.RotateZ(ang).Norm(), v.Norm(), 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECEFKnownPoints(t *testing.T) {
	tests := []struct {
		name string
		p    LatLon
		want Vec3
	}{
		{"equator-prime", LatLon{0, 0, 0}, Vec3{units.EarthRadiusKm, 0, 0}},
		{"north-pole", LatLon{90, 0, 0}, Vec3{0, 0, units.EarthRadiusKm}},
		{"equator-90E", LatLon{0, 90, 0}, Vec3{0, units.EarthRadiusKm, 0}},
		{"south-pole", LatLon{-90, 45, 0}, Vec3{0, 0, -units.EarthRadiusKm}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.p.ECEF()
			if !almostEq(got.X, tc.want.X, 1e-6) || !almostEq(got.Y, tc.want.Y, 1e-6) || !almostEq(got.Z, tc.want.Z, 1e-6) {
				t.Fatalf("ECEF(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

func TestECEFRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := randLatLon(r)
		p.AltKm = r.Float64() * 2000
		got := FromECEF(p.ECEF())
		if !almostEq(got.LatDeg, p.LatDeg, 1e-9) || !almostEq(got.AltKm, p.AltKm, 1e-6) {
			t.Fatalf("round trip %v -> %v", p, got)
		}
		// Longitude is degenerate at the poles; skip there.
		if math.Abs(p.LatDeg) < 89.999 && !almostEq(got.LonDeg, p.LonDeg, 1e-9) {
			t.Fatalf("lon round trip %v -> %v", p, got)
		}
	}
}

func TestGreatCircleKnownDistances(t *testing.T) {
	tests := []struct {
		name   string
		a, b   LatLon
		wantKm float64
		tolKm  float64
	}{
		{"same-point", LatLon{10, 20, 0}, LatLon{10, 20, 0}, 0, 1e-9},
		{"quarter-equator", LatLon{0, 0, 0}, LatLon{0, 90, 0}, math.Pi / 2 * units.EarthRadiusKm, 1},
		{"pole-to-pole", LatLon{90, 0, 0}, LatLon{-90, 0, 0}, math.Pi * units.EarthRadiusKm, 1},
		// Abuja -> Johannesburg, the Fig 3 baseline leg: roughly 4,500 km
		// great-circle (the paper's 9,200 km round trip to the *farthest*
		// user is consistent with this scale).
		{"abuja-johannesburg", LatLon{9.06, 7.49, 0}, LatLon{-26.20, 28.05, 0}, 4510, 120},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := GreatCircleKm(tc.a, tc.b); !almostEq(got, tc.wantKm, tc.tolKm) {
				t.Fatalf("GreatCircleKm = %.1f, want %.1f±%.1f", got, tc.wantKm, tc.tolKm)
			}
		})
	}
}

func TestGreatCircleSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		a, b := randLatLon(r), randLatLon(r)
		d1, d2 := GreatCircleKm(a, b), GreatCircleKm(b, a)
		if !almostEq(d1, d2, 1e-6) {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
	}
}

func TestGreatCircleTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		a, b, c := randLatLon(r), randLatLon(r), randLatLon(r)
		if GreatCircleKm(a, c) > GreatCircleKm(a, b)+GreatCircleKm(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestCentralAngleMatchesDistance(t *testing.T) {
	a := LatLon{0, 0, 0}
	b := LatLon{0, 60, 0}
	if got := CentralAngleRad(a, b); !almostEq(got, math.Pi/3, 1e-9) {
		t.Fatalf("CentralAngleRad = %v, want π/3", got)
	}
}

func TestCentroidOfSinglePoint(t *testing.T) {
	p := LatLon{42, -71, 0}
	c := Centroid([]LatLon{p})
	if !almostEq(c.LatDeg, p.LatDeg, 1e-9) || !almostEq(c.LonDeg, p.LonDeg, 1e-9) {
		t.Fatalf("Centroid([p]) = %v, want %v", c, p)
	}
}

func TestCentroidEmpty(t *testing.T) {
	if got := Centroid(nil); got != (LatLon{}) {
		t.Fatalf("Centroid(nil) = %v, want zero", got)
	}
}

func TestCentroidBetweenTwoPoints(t *testing.T) {
	a := LatLon{0, 10, 0}
	b := LatLon{0, 30, 0}
	c := Centroid([]LatLon{a, b})
	if !almostEq(c.LonDeg, 20, 1e-6) || !almostEq(c.LatDeg, 0, 1e-6) {
		t.Fatalf("Centroid = %v, want 0,20", c)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		start := randLatLon(r)
		if math.Abs(start.LatDeg) > 80 {
			continue // bearing arithmetic is degenerate near poles
		}
		brg := r.Float64() * 360
		dist := r.Float64() * 5000
		end := Destination(start, brg, dist)
		if got := GreatCircleKm(start, end); !almostEq(got, dist, 1) {
			t.Fatalf("Destination distance %.2f, want %.2f", got, dist)
		}
	}
}

// TestInitialBearingCardinal: Destination measures bearings clockwise from
// north, so a quarter turn of bearing from the origin lands on each
// cardinal point.
func TestInitialBearingCardinal(t *testing.T) {
	origin := LatLon{0, 0, 0}
	arcKm := units.EarthRadiusKm * units.Deg2Rad(10)
	tests := []struct {
		bearing float64
		want    LatLon
	}{
		{0, LatLon{10, 0, 0}},    // north
		{90, LatLon{0, 10, 0}},   // east
		{180, LatLon{-10, 0, 0}}, // south
		{270, LatLon{0, -10, 0}}, // west
	}
	for _, tc := range tests {
		got := Destination(origin, tc.bearing, arcKm)
		if !almostEq(got.LatDeg, tc.want.LatDeg, 1e-6) || !almostEq(got.LonDeg, tc.want.LonDeg, 1e-6) {
			t.Errorf("bearing %v lands at %v, want %v", tc.bearing, got, tc.want)
		}
	}
}

func TestLatLonValid(t *testing.T) {
	tests := []struct {
		p    LatLon
		want bool
	}{
		{LatLon{0, 0, 0}, true},
		{LatLon{90, 180, 0}, true},
		{LatLon{-90.01, 0, 0}, false},
		{LatLon{0, 180.01, 0}, false},
		{LatLon{math.NaN(), 0, 0}, false},
	}
	for _, tc := range tests {
		if got := tc.p.Valid(); got != tc.want {
			t.Errorf("Valid(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestStringFormat(t *testing.T) {
	if got := (LatLon{9.058, 7.494, 0}).String(); got != "9.06,7.49" {
		t.Fatalf("String() = %q", got)
	}
}
