// Package units holds the physical constants and unit helpers shared by the
// orbital, geometric, and link models. All internal computation uses
// kilometres, seconds, and radians; helpers convert at the edges.
package units

import "math"

// Physical constants. Values follow the WGS-72/WGS-84 conventions commonly
// used by satellite tooling; the paper's results are insensitive to the
// sub-kilometre differences between ellipsoid models because it accounts for
// propagation delay only.
const (
	// EarthRadiusKm is the mean equatorial Earth radius in kilometres.
	EarthRadiusKm = 6378.135

	// EarthMuKm3S2 is the geocentric gravitational constant (GM) in km^3/s^2.
	EarthMuKm3S2 = 398600.4418

	// EarthSiderealDaySec is the duration of one sidereal rotation in seconds.
	EarthSiderealDaySec = 86164.0905

	// EarthRotationRadS is the Earth's rotation rate in radians per second.
	EarthRotationRadS = 2 * math.Pi / EarthSiderealDaySec

	// SpeedOfLightKmS is the vacuum speed of light in km/s. The paper's RTTs
	// are free-space propagation delays, so c in vacuum is the right constant
	// for both radio up/down links and laser inter-satellite links.
	SpeedOfLightKmS = 299792.458

	// J2 is the Earth's second zonal harmonic, used for optional nodal
	// precession modelling.
	J2 = 1.08262668e-3

	// GEOAltitudeKm is the altitude of the geostationary orbit, used for the
	// paper's "~65x lower latency than GEO" comparisons.
	GEOAltitudeKm = 35786.0
)

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }

// PropagationDelayMs returns the one-way propagation delay in milliseconds
// for a path of the given length in kilometres. The explicit conversion
// rounds the product, so a caller's add cannot fuse with it into a
// multiply-add (arm64 would otherwise): the delay has the same bits on
// every platform.
func PropagationDelayMs(distanceKm float64) float64 {
	return float64(distanceKm / SpeedOfLightKmS * 1000)
}

// RTTMs returns the round-trip propagation time in milliseconds for a one-way
// path of the given length in kilometres. Doubling is exact, so it has the
// same bits on every platform too.
func RTTMs(oneWayKm float64) float64 {
	return 2 * PropagationDelayMs(oneWayKm)
}

// OrbitalPeriodSec returns the period in seconds of a circular orbit at the
// given altitude above the Earth's surface.
func OrbitalPeriodSec(altitudeKm float64) float64 {
	a := EarthRadiusKm + altitudeKm
	return 2 * math.Pi * math.Sqrt(a*a*a/EarthMuKm3S2)
}

// OrbitalVelocityKmS returns the speed in km/s of a circular orbit at the
// given altitude.
func OrbitalVelocityKmS(altitudeKm float64) float64 {
	return math.Sqrt(EarthMuKm3S2 / (EarthRadiusKm + altitudeKm))
}

// WrapDegrees normalises an angle to [0, 360).
func WrapDegrees(a float64) float64 {
	a = math.Mod(a, 360)
	if a < 0 {
		a += 360
	}
	return a
}

// Finite reports whether no value is NaN or ±Inf.
func Finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	}
	return v
}
