// Package geo provides the geodetic substrate: geographic coordinates,
// Earth-centred Cartesian vectors, and great-circle geometry on the spherical
// Earth model used throughout the simulation.
package geo

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Vec3 is a Cartesian vector in kilometres. Depending on context it is
// expressed in the ECI (inertial) or ECEF (Earth-fixed) frame; the two share
// the Z axis (north) and differ by a rotation about it.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w. Each product is rounded by an
// explicit float64(...), so that no platform fuses a multiply-add into the
// sum: every platform gets amd64's bits.
func (v Vec3) Dot(w Vec3) float64 { return float64(v.X*w.X) + float64(v.Y*w.Y) + float64(v.Z*w.Z) }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v normalised to length 1. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Distance returns |v - w| in kilometres.
func (v Vec3) Distance(w Vec3) float64 { return v.Sub(w).Norm() }

// RotateZ rotates v about the Z axis by angle radians (counter-clockwise
// looking down the +Z axis). It converts between ECI and ECEF frames given
// the Earth rotation angle.
func (v Vec3) RotateZ(angle float64) Vec3 {
	s, c := math.Sincos(angle)
	return Vec3{
		X: c*v.X - s*v.Y,
		Y: s*v.X + c*v.Y,
		Z: v.Z,
	}
}

// LatLon is a geographic position in degrees. Latitude is positive north,
// longitude positive east. AltKm is height above the spherical Earth surface.
type LatLon struct {
	LatDeg, LonDeg float64
	AltKm          float64
}

// String renders the position as "lat,lon" with two decimals.
func (p LatLon) String() string {
	return fmt.Sprintf("%.2f,%.2f", p.LatDeg, p.LonDeg)
}

// Valid reports whether the coordinates are within the conventional ranges
// (|lat| <= 90, |lon| <= 180) and non-NaN.
func (p LatLon) Valid() bool {
	if math.IsNaN(p.LatDeg) || math.IsNaN(p.LonDeg) {
		return false
	}
	return p.LatDeg >= -90 && p.LatDeg <= 90 && p.LonDeg >= -180 && p.LonDeg <= 180
}

// ECEF converts the geographic position to Earth-fixed Cartesian coordinates
// on the spherical Earth model.
func (p LatLon) ECEF() Vec3 {
	r := units.EarthRadiusKm + p.AltKm
	lat := units.Deg2Rad(p.LatDeg)
	lon := units.Deg2Rad(p.LonDeg)
	cl := math.Cos(lat)
	return Vec3{
		X: r * cl * math.Cos(lon),
		Y: r * cl * math.Sin(lon),
		Z: r * math.Sin(lat),
	}
}

// FromECEF converts an Earth-fixed Cartesian position to geographic
// coordinates (spherical Earth).
func FromECEF(v Vec3) LatLon {
	r := v.Norm()
	if r == 0 {
		return LatLon{}
	}
	return LatLon{
		LatDeg: units.Rad2Deg(math.Asin(v.Z / r)),
		LonDeg: units.Rad2Deg(math.Atan2(v.Y, v.X)),
		AltKm:  r - units.EarthRadiusKm,
	}
}

// GreatCircleKm returns the great-circle (surface) distance between two
// geographic positions in kilometres, ignoring altitude.
func GreatCircleKm(a, b LatLon) float64 {
	la1 := units.Deg2Rad(a.LatDeg)
	la2 := units.Deg2Rad(b.LatDeg)
	dLat := la2 - la1
	dLon := units.Deg2Rad(b.LonDeg - a.LonDeg)
	// Haversine formulation: numerically robust for small distances.
	sLat := math.Sin(dLat / 2)
	sLon := math.Sin(dLon / 2)
	h := sLat*sLat + math.Cos(la1)*math.Cos(la2)*sLon*sLon
	return 2 * units.EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// CentralAngleRad returns the Earth-central angle in radians subtended by the
// great-circle arc between a and b.
func CentralAngleRad(a, b LatLon) float64 {
	return GreatCircleKm(a, b) / units.EarthRadiusKm
}

// Centroid returns the normalised spherical centroid of the given positions.
// It is the point on the sphere minimising the sum of squared chord lengths,
// a good "centre of a user group" for meetup-server reasoning.
func Centroid(pts []LatLon) LatLon {
	if len(pts) == 0 {
		return LatLon{}
	}
	var sum Vec3
	for _, p := range pts {
		sum = sum.Add(LatLon{LatDeg: p.LatDeg, LonDeg: p.LonDeg}.ECEF().Unit())
	}
	if sum.Norm() < 1e-9 {
		return LatLon{}
	}
	return FromECEF(sum.Unit().Scale(units.EarthRadiusKm))
}

// Destination returns the point reached by travelling distanceKm from start
// along the given initial bearing (degrees clockwise from north).
func Destination(start LatLon, bearingDeg, distanceKm float64) LatLon {
	la1 := units.Deg2Rad(start.LatDeg)
	lo1 := units.Deg2Rad(start.LonDeg)
	brg := units.Deg2Rad(bearingDeg)
	d := distanceKm / units.EarthRadiusKm

	la2 := math.Asin(math.Sin(la1)*math.Cos(d) + math.Cos(la1)*math.Sin(d)*math.Cos(brg))
	lo2 := lo1 + math.Atan2(
		math.Sin(brg)*math.Sin(d)*math.Cos(la1),
		math.Cos(d)-math.Sin(la1)*math.Sin(la2),
	)
	lon := units.Rad2Deg(lo2)
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return LatLon{LatDeg: units.Rad2Deg(la2), LonDeg: lon}
}
