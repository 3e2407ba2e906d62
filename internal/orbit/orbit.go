// Package orbit implements the orbital-mechanics substrate: circular
// Keplerian propagation of LEO satellites, the inertial→Earth-fixed frame
// rotation, nodal precession under J2, and Earth-shadow (eclipse) geometry.
//
// The paper's analysis needs positions accurate to a few kilometres over
// two-hour windows; ideal circular two-body motion (optionally with secular
// J2 RAAN drift) is more than sufficient and is what LEO constellation
// simulators such as Hypatia use for the same figures.
package orbit

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/units"
)

// Elements describes a circular orbit by its Keplerian elements. Eccentricity
// is fixed at zero: every constellation shell in the paper is circular.
type Elements struct {
	// AltitudeKm is the orbit altitude above the Earth's surface.
	AltitudeKm float64
	// InclinationDeg is the orbital inclination.
	InclinationDeg float64
	// RAANDeg is the right ascension of the ascending node at epoch.
	RAANDeg float64
	// ArgLatDeg is the argument of latitude (angle from the ascending node
	// along the orbit) at epoch. For circular orbits this replaces the
	// argument of perigee + true anomaly pair.
	ArgLatDeg float64
}

// Validate reports whether the elements describe a physically meaningful
// LEO-ish orbit.
func (e Elements) Validate() error {
	if !units.Finite(e.AltitudeKm, e.InclinationDeg, e.RAANDeg, e.ArgLatDeg) {
		return fmt.Errorf("orbit: elements %+v must be finite", e)
	}
	if e.AltitudeKm <= 0 {
		return fmt.Errorf("orbit: altitude %.1f km must be positive", e.AltitudeKm)
	}
	if e.InclinationDeg < 0 || e.InclinationDeg > 180 {
		return fmt.Errorf("orbit: inclination %.1f° outside [0,180]", e.InclinationDeg)
	}
	return nil
}

// SemiMajorAxisKm returns the orbit's semi-major axis (= radius, circular).
func (e Elements) SemiMajorAxisKm() float64 {
	return units.EarthRadiusKm + e.AltitudeKm
}

// PeriodSec returns the orbital period in seconds.
func (e Elements) PeriodSec() float64 {
	return units.OrbitalPeriodSec(e.AltitudeKm)
}

// MeanMotionRadS returns the angular rate in radians per second.
func (e Elements) MeanMotionRadS() float64 {
	return 2 * math.Pi / e.PeriodSec()
}

// J2NodalRateRadS returns the secular RAAN drift rate due to the Earth's
// oblateness (J2). Negative for prograde orbits (westward regression).
func (e Elements) J2NodalRateRadS() float64 {
	a := e.SemiMajorAxisKm()
	n := e.MeanMotionRadS()
	re := units.EarthRadiusKm
	return -1.5 * n * units.J2 * (re / a) * (re / a) * math.Cos(units.Deg2Rad(e.InclinationDeg))
}

// Propagator turns elements into time-parameterised positions. The zero
// value is not useful; construct with NewPropagator.
type Propagator struct {
	elems    Elements
	sinInc   float64 // sin and cos of the inclination
	cosInc   float64
	raan0    float64 // radians at epoch
	argLat0  float64 // radians at epoch
	meanRate float64 // rad/s
	raanRate float64 // rad/s (0 unless J2 enabled)
	radius   float64 // km
}

// Options adjusts propagation fidelity.
type Options struct {
	// J2 enables secular nodal precession. The paper's two-hour windows make
	// this a sub-10 km effect, but it is cheap and keeps multi-day scenarios
	// honest.
	J2 bool
}

// NewPropagator builds a propagator for the given circular elements.
func NewPropagator(e Elements, opts Options) (*Propagator, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	p := &Propagator{
		elems:    e,
		raan0:    units.Deg2Rad(e.RAANDeg),
		argLat0:  units.Deg2Rad(e.ArgLatDeg),
		meanRate: e.MeanMotionRadS(),
		radius:   e.SemiMajorAxisKm(),
	}
	p.sinInc, p.cosInc = math.Sincos(units.Deg2Rad(e.InclinationDeg))
	if opts.J2 {
		p.raanRate = e.J2NodalRateRadS()
	}
	return p, nil
}

// Elements returns the epoch elements the propagator was built from.
func (p *Propagator) Elements() Elements { return p.elems }

// MaxECEFSpeedKmS bounds the Earth-fixed speed at every instant: the
// along-track rate plus the frame's turn under it, r(n + |Ω̇| + ω_E).
func (p *Propagator) MaxECEFSpeedKmS() float64 {
	return p.radius * (p.meanRate + math.Abs(p.raanRate) + units.EarthRotationRadS)
}

// ECIAt returns the inertial-frame position at t seconds after epoch.
func (p *Propagator) ECIAt(tSec float64) geo.Vec3 {
	u := p.argLat0 + p.meanRate*tSec
	raan := p.raan0 + p.raanRate*tSec
	su, cu := math.Sincos(u)
	sR, cR := math.Sincos(raan)
	si, ci := p.sinInc, p.cosInc
	return geo.Vec3{
		X: p.radius * (cR*cu - sR*su*ci),
		Y: p.radius * (sR*cu + cR*su*ci),
		Z: p.radius * (su * si),
	}
}

// ECEFAt returns the Earth-fixed position at t seconds after epoch, assuming
// the inertial and Earth-fixed frames coincide at epoch (GMST(0) = 0). All
// positions in a simulation share the epoch, so this convention cancels out
// of every relative quantity.
func (p *Propagator) ECEFAt(tSec float64) geo.Vec3 {
	return p.ECIAt(tSec).RotateZ(-units.EarthRotationRadS * tSec)
}

// ECEFInto fills dst[i] with props[i].ECEFAt(tSec) bit for bit, a frame at a
// time: the Earth-rotation sincos is taken once per call and the RAAN sincos
// once per run of bit-equal RAANs (a Walker plane; bits, because sin(-0) is
// -0), keeping ECEFAt's association. dst must be as long as props.
func ECEFInto(props []*Propagator, tSec float64, dst []geo.Vec3) {
	sE, cE := math.Sincos(-units.EarthRotationRadS * tSec)
	var sR, cR, prev float64
	for i, p := range props {
		if raan := p.raan0 + p.raanRate*tSec; i == 0 || math.Float64bits(raan) != math.Float64bits(prev) {
			prev = raan
			sR, cR = math.Sincos(raan)
		}
		su, cu := math.Sincos(p.argLat0 + p.meanRate*tSec)
		x := p.radius * (cR*cu - sR*su*p.cosInc)
		y := p.radius * (sR*cu + cR*su*p.cosInc)
		dst[i] = geo.Vec3{X: cE*x - sE*y, Y: sE*x + cE*y, Z: p.radius * (su * p.sinInc)}
	}
}

// ECIVelocityAt returns the inertial-frame velocity (km/s) at t seconds
// after epoch, by analytic differentiation of the circular motion.
func (p *Propagator) ECIVelocityAt(tSec float64) geo.Vec3 {
	u := p.argLat0 + p.meanRate*tSec
	raan := p.raan0 + p.raanRate*tSec
	su, cu := math.Sincos(u)
	sR, cR := math.Sincos(raan)
	si, ci := p.sinInc, p.cosInc
	v := p.radius * p.meanRate
	// d/du of the position, times du/dt (RAAN drift is ~5 orders smaller
	// and ignored in the velocity).
	return geo.Vec3{
		X: v * (-cR*su - sR*cu*ci),
		Y: v * (-sR*su + cR*cu*ci),
		Z: v * (cu * si),
	}
}

// ECEFVelocityAt returns the Earth-fixed-frame velocity (km/s) at t seconds
// after epoch: the rotated inertial velocity minus the frame-rotation term
// ω × r.
func (p *Propagator) ECEFVelocityAt(tSec float64) geo.Vec3 {
	theta := -units.EarthRotationRadS * tSec
	vRot := p.ECIVelocityAt(tSec).RotateZ(theta)
	r := p.ECEFAt(tSec)
	// ω × r with ω = ω_e ẑ: subtracting the frame's own motion.
	omegaCrossR := geo.Vec3{X: -units.EarthRotationRadS * r.Y, Y: units.EarthRotationRadS * r.X}
	return vRot.Sub(omegaCrossR)
}

// InShadowAt reports whether the satellite is inside the Earth's shadow at
// t seconds after epoch, given the unit vector pointing from the Earth to
// the Sun in the inertial frame. A cylindrical shadow model is used: the
// satellite is eclipsed when it is behind the terminator plane and within
// one Earth radius of the anti-solar axis. This drives the power/battery
// duty-cycle model in §4.
func (p *Propagator) InShadowAt(tSec float64, sunUnitECI geo.Vec3) bool {
	r := p.ECIAt(tSec)
	along := r.Dot(sunUnitECI)
	if along >= 0 {
		return false // sun side of the terminator plane
	}
	perp := r.Sub(sunUnitECI.Scale(along))
	return perp.Norm() < units.EarthRadiusKm
}

// EclipseFraction numerically integrates the fraction of one orbital period
// spent in the Earth's shadow, sampling at the given step. A step of a few
// seconds gives three-decimal accuracy, ample for the power budget model.
func (p *Propagator) EclipseFraction(sunUnitECI geo.Vec3, stepSec float64) float64 {
	if stepSec <= 0 {
		stepSec = 5
	}
	period := p.elems.PeriodSec()
	var dark, total int
	for t := 0.0; t < period; t += stepSec {
		total++
		if p.InShadowAt(t, sunUnitECI) {
			dark++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(dark) / float64(total)
}
