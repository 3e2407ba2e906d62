// Package constellation builds LEO mega-constellations out of Walker-delta
// shells and provides the published Starlink, Kuiper, and Telesat
// configurations that the paper evaluates.
package constellation

import (
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/units"
)

// Shell is one Walker-delta shell: Planes orbital planes spread evenly over
// 360° of RAAN, each with SatsPerPlane satellites spread evenly in argument
// of latitude, all at the same altitude and inclination.
type Shell struct {
	// Name labels the shell in diagnostics ("starlink-550", ...).
	Name string
	// AltitudeKm is the shell altitude above the surface.
	AltitudeKm float64
	// InclinationDeg is the orbital inclination of every plane.
	InclinationDeg float64
	// Planes is the number of orbital planes.
	Planes int
	// SatsPerPlane is the number of satellites per plane.
	SatsPerPlane int
	// PhaseFactor is the Walker phasing parameter F in [0, Planes): satellite
	// k of plane p is offset by p·F·360/(Planes·SatsPerPlane) degrees of
	// argument of latitude relative to plane 0.
	PhaseFactor int
	// MinElevationDeg is the minimum elevation angle at which a ground
	// terminal can communicate with satellites of this shell, per the
	// operator's filing.
	MinElevationDeg float64
}

// Count returns the number of satellites in the shell.
func (s Shell) Count() int { return s.Planes * s.SatsPerPlane }

// Validate reports whether the shell parameters are usable.
func (s Shell) Validate() error {
	if s.Planes <= 0 || s.SatsPerPlane <= 0 {
		return fmt.Errorf("constellation: shell %q needs positive planes (%d) and sats/plane (%d)",
			s.Name, s.Planes, s.SatsPerPlane)
	}
	if !units.Finite(s.AltitudeKm, s.InclinationDeg, s.MinElevationDeg) {
		return fmt.Errorf("constellation: shell %q needs finite altitude, inclination and min elevation", s.Name)
	}
	if s.AltitudeKm <= 0 {
		return fmt.Errorf("constellation: shell %q altitude %.1f km must be positive", s.Name, s.AltitudeKm)
	}
	if s.MinElevationDeg < 0 || s.MinElevationDeg >= 90 {
		return fmt.Errorf("constellation: shell %q min elevation %.1f° outside [0,90)", s.Name, s.MinElevationDeg)
	}
	return nil
}

// Satellite is one satellite of a built constellation.
type Satellite struct {
	// ID is the index of the satellite within its constellation, dense from 0.
	ID int
	// ShellIndex identifies the shell the satellite belongs to.
	ShellIndex int
	// Plane is the orbital plane index within the shell.
	Plane int
	// Slot is the satellite index within the plane.
	Slot int
	// Prop propagates the satellite's position.
	Prop *orbit.Propagator
}

// Name returns a stable human-readable identifier such as
// "starlink-550/p12s03".
func (s Satellite) Name(shells []Shell) string {
	shell := "?"
	if s.ShellIndex >= 0 && s.ShellIndex < len(shells) {
		shell = shells[s.ShellIndex].Name
	}
	return fmt.Sprintf("%s/p%02ds%02d", shell, s.Plane, s.Slot)
}

// Constellation is a named collection of shells with all satellites built.
type Constellation struct {
	// Name of the constellation ("Starlink Phase I", ...).
	Name string
	// Shells in the constellation, in construction order.
	Shells []Shell
	// Satellites across all shells, IDs dense from 0.
	Satellites []Satellite
	props      []*orbit.Propagator // Satellites[i].Prop, the frame kernel's input
}

// Config controls constellation construction.
type Config struct {
	// Orbit selects propagation fidelity for every satellite.
	Orbit orbit.Options
}

// Build constructs a constellation from shells.
func Build(name string, shells []Shell, cfg Config) (*Constellation, error) {
	c := &Constellation{Name: name, Shells: shells}
	id := 0
	for si, sh := range shells {
		if err := sh.Validate(); err != nil {
			return nil, err
		}
		raanStep := 360.0 / float64(sh.Planes)
		slotStep := 360.0 / float64(sh.SatsPerPlane)
		phaseStep := float64(sh.PhaseFactor) * 360.0 / float64(sh.Planes*sh.SatsPerPlane)
		for p := 0; p < sh.Planes; p++ {
			for k := 0; k < sh.SatsPerPlane; k++ {
				e := orbit.Elements{
					AltitudeKm:     sh.AltitudeKm,
					InclinationDeg: sh.InclinationDeg,
					RAANDeg:        units.WrapDegrees(float64(p) * raanStep),
					ArgLatDeg:      units.WrapDegrees(float64(k)*slotStep + float64(p)*phaseStep),
				}
				prop, err := orbit.NewPropagator(e, cfg.Orbit)
				if err != nil {
					return nil, fmt.Errorf("constellation %q shell %q: %w", name, sh.Name, err)
				}
				c.Satellites = append(c.Satellites, Satellite{
					ID:         id,
					ShellIndex: si,
					Plane:      p,
					Slot:       k,
					Prop:       prop,
				})
				c.props = append(c.props, prop)
				id++
			}
		}
	}
	return c, nil
}

// Propagators returns every satellite's propagator, indexed by satellite ID:
// the input of orbit.ECEFInto. The slice is shared; do not modify it.
func (c *Constellation) Propagators() []*orbit.Propagator { return c.props }

// Size returns the total number of satellites.
func (c *Constellation) Size() int { return len(c.Satellites) }

// Snapshot returns the ECEF position of every satellite at t seconds after
// epoch, indexed by satellite ID. The slice is freshly allocated.
func (c *Constellation) Snapshot(tSec float64) []geo.Vec3 {
	out := make([]geo.Vec3, len(c.Satellites))
	orbit.ECEFInto(c.props, tSec, out)
	return out
}

// ErrSnapshotLength is wrapped by SnapshotInto's error for a dst whose
// length is not the constellation's size.
var ErrSnapshotLength = errors.New("snapshot buffer length is not the satellite count")

// SnapshotInto fills dst (which must have length Size()) with ECEF positions
// at t seconds after epoch, avoiding allocation in sweeps. A wrong-sized dst
// is left untouched and reported as an error wrapping ErrSnapshotLength,
// rather than filling a prefix.
func (c *Constellation) SnapshotInto(tSec float64, dst []geo.Vec3) error {
	if len(dst) != len(c.Satellites) {
		return fmt.Errorf("constellation: SnapshotInto dst length %d, want %d satellites (%s): %w",
			len(dst), len(c.Satellites), c.Name, ErrSnapshotLength)
	}
	orbit.ECEFInto(c.props, tSec, dst)
	return nil
}
