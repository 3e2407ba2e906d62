package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOrbitalPeriodStarlink550(t *testing.T) {
	// The paper: at 550 km the orbital period is 95 min 39 s (5739 s).
	got := OrbitalPeriodSec(550)
	if !almostEq(got, 5739, 5) {
		t.Fatalf("OrbitalPeriodSec(550) = %.1f s, want 5739±5 s", got)
	}
}

func TestOrbitalVelocityStarlink550(t *testing.T) {
	// The paper: 27,306 km/h = 7.585 km/s.
	got := OrbitalVelocityKmS(550)
	if !almostEq(got, 7.585, 0.01) {
		t.Fatalf("OrbitalVelocityKmS(550) = %.3f km/s, want 7.585±0.01", got)
	}
}

func TestGEOPeriodIsSiderealDay(t *testing.T) {
	got := OrbitalPeriodSec(GEOAltitudeKm)
	if !almostEq(got, EarthSiderealDaySec, 60) {
		t.Fatalf("GEO period = %.0f s, want sidereal day %.0f±60 s", got, EarthSiderealDaySec)
	}
}

func TestGEOLatencyRatio(t *testing.T) {
	// The paper: LEO at 550 km offers ~65x lower propagation latency than GEO.
	ratio := GEOAltitudeKm / 550
	if ratio < 60 || ratio > 70 {
		t.Fatalf("GEO/LEO altitude ratio = %.1f, want ~65", ratio)
	}
}

func TestPropagationDelay(t *testing.T) {
	tests := []struct {
		km   float64
		ms   float64
		name string
	}{
		{299792.458, 1000, "one light-second"},
		{550, 1.834, "550 km overhead"},
		{0, 0, "zero"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := PropagationDelayMs(tc.km); !almostEq(got, tc.ms, 0.01) {
				t.Fatalf("PropagationDelayMs(%v) = %v, want %v", tc.km, got, tc.ms)
			}
		})
	}
}

func TestRTTIsTwiceOneWay(t *testing.T) {
	f := func(km float64) bool {
		km = math.Abs(km)
		if math.IsInf(km, 0) || math.IsNaN(km) {
			return true
		}
		return almostEq(RTTMs(km), 2*PropagationDelayMs(km), 1e-9*math.Max(1, km))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrapDegreesRange(t *testing.T) {
	f := func(seed int64) bool {
		a := float64(seed%72000000) / 100 // [-360000, 360000] deg
		w := WrapDegrees(a)
		if w < 0 || w >= 360 {
			return false
		}
		diff := math.Mod(w-a, 360)
		if diff < -180 {
			diff += 360
		}
		if diff > 180 {
			diff -= 360
		}
		return math.Abs(diff) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrapDegreesKnown(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0}, {360, 0}, {-90, 270}, {720.5, 0.5}, {359.9, 359.9},
	}
	for _, tc := range tests {
		if got := WrapDegrees(tc.in); !almostEq(got, tc.want, 1e-9) {
			t.Errorf("WrapDegrees(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		d := float64(seed%200000000) / 100 // [-1e6, 1e6] deg
		return almostEq(Rad2Deg(Deg2Rad(d)), d, 1e-9*math.Max(1, math.Abs(d)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tc := range tests {
		if got := Clamp(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestPeriodMonotonicInAltitude(t *testing.T) {
	f := func(a, b float64) bool {
		a = 200 + math.Mod(math.Abs(a), 2000)
		b = 200 + math.Mod(math.Abs(b), 2000)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return OrbitalPeriodSec(lo) <= OrbitalPeriodSec(hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVelocityDecreasesWithAltitude(t *testing.T) {
	if OrbitalVelocityKmS(550) <= OrbitalVelocityKmS(1325) {
		t.Fatal("orbital velocity should decrease with altitude")
	}
}
