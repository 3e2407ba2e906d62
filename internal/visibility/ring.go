package visibility

import (
	"repro/internal/ephem"
	"repro/internal/geo"
)

// Ring is a look-ahead window of constellation frames: slot k holds the
// frame at t+k·step for k in [0, K], where t is the time it was built or
// last advanced to. It answers the two questions hand-off planning asks of
// the future — is a satellite visible from every ground point k steps
// ahead, and for how many steps does it stay so — with Observer.Visible's
// compare. Frames come from the ephemeris engine when one is given (shared
// and read-only: never write into them), else from Constellation.Snapshot.
type Ring struct {
	obs    *Observer
	eng    *ephem.Engine
	step   float64
	frames [][]geo.Vec3
}

// NewRing builds the ring of k+1 frames at t0, t0+step, ..., t0+k·step
// (k < 1 is taken as 1). eng may be nil.
func NewRing(o *Observer, eng *ephem.Engine, t0, step float64, k int) *Ring {
	r := &Ring{obs: o, eng: eng, step: step, frames: make([][]geo.Vec3, max(k, 1)+1)}
	for i := range r.frames {
		r.frames[i] = r.frameAt(t0 + float64(i)*step)
	}
	return r
}

func (r *Ring) frameAt(t float64) []geo.Vec3 {
	if r.eng != nil {
		return r.eng.SnapshotAt(t)
	}
	return r.obs.c.Snapshot(t)
}

// Advance moves the window to start at t, which the caller's clock puts one
// step after the current start: every slot shifts down one and slot K
// fetches the frame at t+K·step.
func (r *Ring) Advance(t float64) {
	k := len(r.frames) - 1
	copy(r.frames, r.frames[1:])
	r.frames[k] = r.frameAt(t + float64(k)*r.step)
}

// K returns the look-ahead depth: the ring holds slots 0..K.
func (r *Ring) K() int { return len(r.frames) - 1 }

// Frame returns slot k's satellite positions, indexed by satellite ID.
func (r *Ring) Frame(k int) []geo.Vec3 { return r.frames[k] }

// VisibleAll reports whether satellite sat is visible from every ground
// point in slot k's frame.
func (r *Ring) VisibleAll(grounds []geo.Vec3, sat, k int) bool {
	pos := r.frames[k][sat]
	for _, g := range grounds {
		if !r.obs.Visible(g, sat, pos) {
			return false
		}
	}
	return true
}

// Life returns how many consecutive slots from 1 on the satellite stays
// visible from every ground point, capped at K.
func (r *Ring) Life(grounds []geo.Vec3, sat int) int {
	for k := 1; k < len(r.frames); k++ {
		if !r.VisibleAll(grounds, sat, k) {
			return k - 1
		}
	}
	return r.K()
}
