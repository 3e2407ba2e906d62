// Package visibility answers "which satellites can a ground terminal talk
// to, and at what range" — the geometric core behind the paper's Figures
// 1, 2, 4, and 5. A satellite is reachable from a ground point when its
// elevation angle above the local horizon meets the constellation's minimum
// elevation mask. Observer answers it with a linear scan over a snapshot;
// Index (index.go) buckets the snapshot by sub-satellite point so bulk
// callers — the fleet planner's session windows, netgraph's freeze — test
// only the satellites that can be in view, with the same compare.
package visibility

import (
	"math"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/units"
)

// ElevationDeg returns the elevation angle in degrees of a satellite (ECEF)
// as seen from a ground position (ECEF). Negative values mean below the
// horizon.
func ElevationDeg(ground, sat geo.Vec3) float64 {
	rel := sat.Sub(ground)
	d := rel.Norm()
	if d == 0 {
		return 90
	}
	sinEl := rel.Dot(ground.Unit()) / d
	return units.Rad2Deg(math.Asin(units.Clamp(sinEl, -1, 1)))
}

// MaxSlantRangeKm returns the slant range to a satellite at altitudeKm when
// it sits exactly at elevation elevDeg — the longest usable path to that
// shell. Closed form from the law of sines on the Earth-centre triangle.
func MaxSlantRangeKm(altitudeKm, elevDeg float64) float64 {
	re := units.EarthRadiusKm
	r := re + altitudeKm
	e := units.Deg2Rad(elevDeg)
	cosE := math.Cos(e)
	// d = sqrt(r² − re²cos²e) − re·sin(e)
	return math.Sqrt(r*r-re*re*cosE*cosE) - re*math.Sin(e)
}

// CoverageCentralAngleRad returns the Earth-central angle of the coverage
// cone of a satellite at altitudeKm with elevation mask elevDeg: a ground
// point sees the satellite iff the central angle between the point and the
// satellite's subpoint is below this value.
func CoverageCentralAngleRad(altitudeKm, elevDeg float64) float64 {
	re := units.EarthRadiusKm
	r := re + altitudeKm
	e := units.Deg2Rad(elevDeg)
	return math.Acos(re/r*math.Cos(e)) - e
}

// Pass describes one satellite's visibility from a ground point at an
// instant.
type Pass struct {
	// SatID is the constellation satellite ID.
	SatID int
	// SlantKm is the current slant range.
	SlantKm float64
	// ElevationDeg is the current elevation angle.
	ElevationDeg float64
	// RTTMs is the round-trip propagation delay over the slant path.
	RTTMs float64
}

// Observer evaluates visibility of one constellation from ground points. It
// precomputes per-satellite chord thresholds so the inner loop is a single
// squared-distance compare, which keeps full-constellation × many-ground-point
// sweeps (Fig 1/2/4) fast.
type Observer struct {
	c *constellation.Constellation
	// maxChord2[id] is the squared slant-range threshold: satellite id is
	// visible iff |sat−ground|² ≤ maxChord2[id]. Valid because the elevation
	// constraint is equivalent to a maximum slant range for a fixed shell
	// altitude and ground points on the surface.
	maxChord2 []float64
	eng       *ephem.Engine // optional shared ephemeris for snapshot sweeps
}

// UseEphemeris routes the observer's own snapshot sweeps (NextPassAny)
// through a shared ephemeris engine so they reuse — and parallelise —
// frame propagation. Returns o for chaining.
func (o *Observer) UseEphemeris(eng *ephem.Engine) *Observer {
	o.eng = eng
	return o
}

// snapshotInto fills dst with the constellation at t, through the shared
// engine when one is attached; a wrong-sized dst is an error.
func (o *Observer) snapshotInto(t float64, dst []geo.Vec3) error {
	if o.eng != nil {
		if err := o.eng.SnapshotInto(t, dst); err == nil {
			return nil
		}
	}
	return o.c.SnapshotInto(t, dst)
}

// NewObserver builds an Observer for the constellation using each shell's
// own elevation mask.
func NewObserver(c *constellation.Constellation) *Observer {
	o := &Observer{c: c, maxChord2: make([]float64, c.Size())}
	for id := range c.Satellites {
		sh := c.Shells[c.Satellites[id].ShellIndex]
		d := MaxSlantRangeKm(sh.AltitudeKm, sh.MinElevationDeg)
		o.maxChord2[id] = d * d
	}
	return o
}

// NewObserverWithMask builds an Observer that overrides every shell's mask
// with a single elevation in degrees (used by the mask-sensitivity ablation).
func NewObserverWithMask(c *constellation.Constellation, elevDeg float64) *Observer {
	o := &Observer{c: c, maxChord2: make([]float64, c.Size())}
	for id := range c.Satellites {
		sh := c.Shells[c.Satellites[id].ShellIndex]
		d := MaxSlantRangeKm(sh.AltitudeKm, elevDeg)
		o.maxChord2[id] = d * d
	}
	return o
}

// Visible reports whether satellite id at position sat (ECEF) is reachable
// from ground (ECEF).
func (o *Observer) Visible(ground geo.Vec3, id int, sat geo.Vec3) bool {
	rel := sat.Sub(ground)
	return rel.Dot(rel) <= o.maxChord2[id]
}

// Reachable appends to dst a Pass for every satellite in snapshot reachable
// from ground, and returns the extended slice. snapshot must be indexed by
// satellite ID (as produced by Constellation.Snapshot).
//
// The dst contract follows append: passing nil allocates a fresh slice;
// passing a recycled buffer (dst[:0]) reuses its backing array so per-query
// allocation is zero once the buffer has grown to the working-set size. The
// returned slice aliases dst's array whenever capacity sufficed — callers
// that hand out the result while also recycling the buffer must copy.
// Existing elements of dst are never modified, only appended after; passes
// are appended in ascending satellite-ID order.
func (o *Observer) Reachable(ground geo.Vec3, snapshot []geo.Vec3, dst []Pass) []Pass {
	for id, sat := range snapshot {
		rel := sat.Sub(ground)
		d2 := rel.Dot(rel)
		if d2 > o.maxChord2[id] {
			continue
		}
		d := math.Sqrt(d2)
		dst = append(dst, Pass{
			SatID:        id,
			SlantKm:      d,
			ElevationDeg: ElevationDeg(ground, sat),
			RTTMs:        units.RTTMs(d),
		})
	}
	return dst
}

// CountReachable returns how many satellites in snapshot are reachable from
// ground without materialising the pass list.
func (o *Observer) CountReachable(ground geo.Vec3, snapshot []geo.Vec3) int {
	n := 0
	for id, sat := range snapshot {
		rel := sat.Sub(ground)
		if rel.Dot(rel) <= o.maxChord2[id] {
			n++
		}
	}
	return n
}

// NearestFarthest returns the slant ranges (km) of the nearest and farthest
// reachable satellites from ground, and ok=false when none is reachable.
func (o *Observer) NearestFarthest(ground geo.Vec3, snapshot []geo.Vec3) (nearKm, farKm float64, ok bool) {
	nearKm = math.Inf(1)
	farKm = math.Inf(-1)
	for id, sat := range snapshot {
		rel := sat.Sub(ground)
		d2 := rel.Dot(rel)
		if d2 > o.maxChord2[id] {
			continue
		}
		ok = true
		d := math.Sqrt(d2)
		if d < nearKm {
			nearKm = d
		}
		if d > farKm {
			farKm = d
		}
	}
	return nearKm, farKm, ok
}

// Nearest returns the ID and slant range of the nearest reachable satellite,
// with ok=false when none is reachable.
func (o *Observer) Nearest(ground geo.Vec3, snapshot []geo.Vec3) (id int, slantKm float64, ok bool) {
	best := math.Inf(1)
	id = -1
	for sid, sat := range snapshot {
		rel := sat.Sub(ground)
		d2 := rel.Dot(rel)
		if d2 > o.maxChord2[sid] || d2 >= best*best {
			continue
		}
		d := math.Sqrt(d2)
		if d < best {
			best = d
			id = sid
		}
	}
	return id, best, id >= 0
}

// MarkVisibleFromAny sets seen[id]=true for every satellite reachable from at
// least one of the ground points. Used by the Fig 4/5 "invisible satellites"
// computation; seen must have length Size().
func (o *Observer) MarkVisibleFromAny(grounds []geo.Vec3, snapshot []geo.Vec3, seen []bool) {
	for id, sat := range snapshot {
		if seen[id] {
			continue
		}
		for _, g := range grounds {
			rel := sat.Sub(g)
			if rel.Dot(rel) <= o.maxChord2[id] {
				seen[id] = true
				break
			}
		}
	}
}
