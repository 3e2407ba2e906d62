package visibility

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/units"
)

// PassWindow is one interval during which a satellite is visible from a
// ground site: acquisition of signal (AOS) to loss of signal (LOS).
type PassWindow struct {
	// SatID identifies the satellite.
	SatID int
	// AOSSec and LOSSec bound the window in seconds after epoch.
	AOSSec, LOSSec float64
	// MaxElevationDeg is the culmination elevation.
	MaxElevationDeg float64
	// MaxElevationSec is when the culmination occurs.
	MaxElevationSec float64
}

// DurationSec returns the pass length.
func (p PassWindow) DurationSec() float64 { return p.LOSSec - p.AOSSec }

// checkScan rejects a pass scan that would never end or never start: a
// non-finite start, horizon or step, or a non-positive horizon or step.
func checkScan(t0, horizonSec, coarseStepSec float64) error {
	if !units.Finite(t0, horizonSec, coarseStepSec) || horizonSec <= 0 || coarseStepSec <= 0 {
		return fmt.Errorf("visibility: scan from t0=%v over %v s in %v s steps: need a finite start and a positive, finite horizon and step", t0, horizonSec, coarseStepSec)
	}
	return nil
}

// PassWindows predicts the visibility windows of satellite satID from the
// ground point over [t0, t0+horizonSec], scanning at coarseStepSec and
// refining the boundaries by bisection to sub-second accuracy. Windows
// already in progress at t0 are reported with AOS = t0; windows still open
// at the horizon end with LOS = t0+horizonSec.
func (o *Observer) PassWindows(ground geo.Vec3, satID int, t0, horizonSec, coarseStepSec float64) ([]PassWindow, error) {
	if satID < 0 || satID >= o.c.Size() {
		return nil, fmt.Errorf("visibility: satellite %d out of range", satID)
	}
	if err := checkScan(t0, horizonSec, coarseStepSec); err != nil {
		return nil, err
	}
	prop := o.c.Satellites[satID].Prop
	visAt := func(t float64) bool {
		return o.Visible(ground, satID, prop.ECEFAt(t))
	}
	// Bisect a visibility transition inside (a, b).
	refine := func(a, b float64, visA bool) float64 {
		for i := 0; i < 40 && b-a > 1e-3; i++ {
			mid := (a + b) / 2
			if visAt(mid) == visA {
				a = mid
			} else {
				b = mid
			}
		}
		return (a + b) / 2
	}

	var out []PassWindow
	end := t0 + horizonSec
	prevVis := visAt(t0)
	var cur *PassWindow
	if prevVis {
		cur = &PassWindow{SatID: satID, AOSSec: t0}
	}
	prevT := t0
	for t := t0 + coarseStepSec; ; t += coarseStepSec {
		if t > end {
			t = end
		}
		vis := visAt(t)
		if vis != prevVis {
			cross := refine(prevT, t, prevVis)
			if vis {
				cur = &PassWindow{SatID: satID, AOSSec: cross}
			} else if cur != nil {
				cur.LOSSec = cross
				out = append(out, *cur)
				cur = nil
			}
			prevVis = vis
		}
		prevT = t
		if t >= end {
			break
		}
	}
	if cur != nil {
		cur.LOSSec = end
		out = append(out, *cur)
	}
	// Culminations: sample each window finely for the max elevation.
	for i := range out {
		w := &out[i]
		best, bestT := -90.0, w.AOSSec
		step := math.Max(1, w.DurationSec()/200)
		for t := w.AOSSec; t <= w.LOSSec; t += step {
			if el := ElevationDeg(ground, prop.ECEFAt(t)); el > best {
				best, bestT = el, t
			}
		}
		w.MaxElevationDeg = best
		w.MaxElevationSec = bestT
	}
	return out, nil
}

// NextPassAny returns the earliest upcoming pass of any satellite over the
// ground point — "when am I next covered". It scans coarsely forward and
// refines like PassWindows; for constellations with continuous coverage it
// returns an immediately-open window.
func (o *Observer) NextPassAny(ground geo.Vec3, t0, horizonSec, coarseStepSec float64) (PassWindow, bool, error) {
	if err := checkScan(t0, horizonSec, coarseStepSec); err != nil {
		return PassWindow{}, false, err
	}
	snap := make([]geo.Vec3, o.c.Size())
	anyVis := func(t float64) (int, bool, error) {
		if err := o.snapshotInto(t, snap); err != nil {
			return -1, false, err
		}
		for id, pos := range snap {
			if o.Visible(ground, id, pos) {
				return id, true, nil
			}
		}
		return -1, false, nil
	}
	for t := t0; t <= t0+horizonSec; t += coarseStepSec {
		id, ok, err := anyVis(t)
		if err != nil {
			return PassWindow{}, false, err
		}
		if ok {
			// Delegate to the per-satellite refinement from just before t.
			start := math.Max(t0, t-coarseStepSec)
			ws, err := o.PassWindows(ground, id, start, horizonSec-(start-t0), coarseStepSec)
			if err != nil {
				return PassWindow{}, false, err
			}
			if len(ws) > 0 {
				return ws[0], true, nil
			}
		}
	}
	return PassWindow{}, false, nil
}
