package visibility

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/units"
)

// DefaultCellDeg is the default footprint-index cell size. ~4° keeps the
// per-cell occupancy near one satellite for the constellations the paper
// studies while a shell's query box stays a few dozen cells.
const DefaultCellDeg = 4

// altSlackKm is the rounding allowance under a shell's lowest orbit: a
// propagated position sits on its orbit's radius to a few ulps.
const altSlackKm = 1e-3

// ErrSnapshotSize is returned by Rebuild for a snapshot that does not hold
// one position per satellite of the indexed constellation.
var ErrSnapshotSize = errors.New("visibility: snapshot size does not match the constellation")

// ErrBelowShell is returned by Rebuild for a satellite flying below the
// lowest orbit of its shell, which the cell boxes are sized for: a lower
// satellite is visible from further away, so a box could miss it.
var ErrBelowShell = errors.New("visibility: satellite below its shell's lowest orbit")

// Index is a spherical lat/lon-grid footprint index over one constellation
// snapshot: one grid per shell, each satellite bucketed by its sub-satellite
// point. A shell has one altitude and one slant-range limit, hence one
// coverage cone, so a reachability query visits, per shell, only the cells
// that can lie within that shell's cone of the ground point, then applies
// the exact chord test against that one limit — the compare
// Observer.Visible makes. Queries assume ground points on the Earth surface
// (AltKm 0), the regime where the slant-range limit is equivalent to a
// central-angle bound.
//
// Rebuild the index whenever the snapshot moves; queries between rebuilds
// share the indexed snapshot. Rebuild is not safe concurrently with queries;
// concurrent queries are read-only and safe.
type Index struct {
	c *constellation.Constellation

	cellDeg    float64
	rows, cols int
	// maxSlantKm is the largest slant range at which any shell's satellites
	// are visible: no visible satellite is farther from its observer.
	maxSlantKm float64
	shells     []shellGeom

	// CSR cell storage, the shells' row-major grids back to back, refilled by
	// Rebuild: the satellites of shell s in cell i are
	// sats[start[s·rows·cols+i]:start[s·rows·cols+i+1]], ascending by ID.
	// pos mirrors sats in the same order so a query streams contiguous
	// memory (the linear scan's one advantage) instead of gathering random
	// IDs, and a row's column window is one contiguous span of it.
	start     []int32
	sats      []int32
	pos       []geo.Vec3
	cellOfSat []int32
	cursor    []int32
}

// shellGeom is one shell's visibility geometry.
type shellGeom struct {
	// limit2 is the squared max slant range: a satellite of the shell is
	// visible iff |sat−ground|² ≤ limit2 — the observer's own threshold.
	limit2 float64
	// minAltKm is the lowest altitude the boxes hold: the shell's lowest
	// orbit (a Walker shell's one altitude; an imported shell's members
	// differ by kilometres) less altSlackKm.
	minAltKm float64
	// radDeg is the coverage central angle at minAltKm in degrees, plus
	// rounding slack: a visible satellite's subpoint lies within it of the
	// ground point.
	radDeg, sinRad float64
}

// CellBox is a rectangle of one shell's grid: rows RowLo..RowHi (row 0 at
// the north pole) by columns ColLo..ColHi (column 0 at −180°), all
// inclusive. ColLo > ColHi wraps the dateline; RowLo > RowHi is the empty
// box.
type CellBox struct{ RowLo, RowHi, ColLo, ColHi uint16 }

var emptyBox = CellBox{RowLo: 1}

// NewIndex builds an empty index over the observer's constellation, with
// each shell's slant-range limit taken from the observer (so a
// mask-overridden observer indexes its own footprint). cellDeg is the grid
// cell size in degrees; zero means DefaultCellDeg. It fails for an observer
// whose thresholds differ inside a shell. Call Rebuild before querying.
func NewIndex(o *Observer, cellDeg float64) (*Index, error) {
	if cellDeg == 0 {
		cellDeg = DefaultCellDeg
	}
	if cellDeg < 0.1 || cellDeg > 30 {
		return nil, fmt.Errorf("visibility: cell size %v° outside [0.1,30]", cellDeg)
	}
	if o == nil || o.c == nil || o.c.Size() == 0 {
		return nil, fmt.Errorf("visibility: empty constellation")
	}
	c := o.c
	ix := &Index{
		c:       c,
		cellDeg: cellDeg,
		rows:    int(math.Ceil(180 / cellDeg)),
		cols:    int(math.Ceil(360 / cellDeg)),
		shells:  make([]shellGeom, len(c.Shells)),
	}
	for si := range ix.shells {
		ix.shells[si].minAltKm = math.Inf(1)
	}
	for id, sat := range c.Satellites {
		sh, limit2 := &ix.shells[sat.ShellIndex], o.maxChord2[id]
		if !math.IsInf(sh.minAltKm, 1) && sh.limit2 != limit2 {
			return nil, fmt.Errorf("visibility: shell %d has mixed slant-range limits", sat.ShellIndex)
		}
		sh.limit2 = limit2
		sh.minAltKm = min(sh.minAltKm, sat.Prop.Elements().AltitudeKm-altSlackKm)
	}
	for si := range ix.shells {
		sh := &ix.shells[si]
		// Law of cosines on the Earth-centre triangle at the slant limit; the
		// angle grows as the satellite sinks, so the lowest orbit bounds it.
		re, r := units.EarthRadiusKm, units.EarthRadiusKm+sh.minAltKm
		cosRad := units.Clamp((re*re+r*r-sh.limit2)/(2*re*r), -1, 1)
		sh.radDeg = units.Rad2Deg(math.Acos(cosRad)) + 1e-6
		sh.sinRad = math.Sin(units.Deg2Rad(sh.radDeg))
		ix.maxSlantKm = max(ix.maxSlantKm, math.Sqrt(sh.limit2))
	}
	cells := len(c.Shells) * ix.rows * ix.cols
	ix.start = make([]int32, cells+1)
	ix.cursor = make([]int32, cells)
	ix.sats = make([]int32, c.Size())
	ix.pos = make([]geo.Vec3, c.Size())
	ix.cellOfSat = make([]int32, c.Size())
	return ix, nil
}

// Limit2 returns shell si's squared slant-range limit.
func (ix *Index) Limit2(si int) float64 { return ix.shells[si].limit2 }

// FloorKm returns shell si's floor altitude: Rebuild refuses a snapshot with
// any of the shell's satellites below it (ErrBelowShell).
func (ix *Index) FloorKm(si int) float64 { return ix.shells[si].minAltKm }

// MaxSlantKm returns the largest slant range at which any satellite is
// visible.
func (ix *Index) MaxSlantKm() float64 { return ix.maxSlantKm }

// CSR returns the satellite IDs and their positions in cell order — the
// arrays RowSpan's ranges index. Shared and overwritten by Rebuild: read
// only.
func (ix *Index) CSR() (sats []int32, pos []geo.Vec3) { return ix.sats, ix.pos }

// rowOf maps a latitude to a grid row (clamped).
func (ix *Index) rowOf(latDeg float64) int {
	return min(max(int((90-latDeg)/ix.cellDeg), 0), ix.rows-1)
}

// colOf maps a longitude to a grid column (wrapped; +180° is the −180°
// meridian).
func (ix *Index) colOf(lonDeg float64) int {
	if lonDeg < -180 || lonDeg >= 180 {
		if lonDeg = math.Remainder(lonDeg, 360); lonDeg == 180 {
			lonDeg = -180
		}
	}
	return min(int((lonDeg+180)/ix.cellDeg), ix.cols-1)
}

// Rebuild re-buckets every satellite by its subpoint in the snapshot, which
// must be indexed by satellite ID (Constellation.Snapshot order). It fails
// with ErrSnapshotSize or ErrBelowShell, leaving the index unusable until a
// Rebuild succeeds.
func (ix *Index) Rebuild(snapshot []geo.Vec3) error {
	if len(snapshot) != ix.c.Size() {
		return fmt.Errorf("%w: %d positions, %d satellites", ErrSnapshotSize, len(snapshot), ix.c.Size())
	}
	for id, pos := range snapshot {
		ll, si := geo.FromECEF(pos), ix.c.Satellites[id].ShellIndex
		if ll.AltKm < ix.shells[si].minAltKm {
			return fmt.Errorf("%w: satellite %d at %.1f km, floor %.1f km", ErrBelowShell, id, ll.AltKm, ix.shells[si].minAltKm)
		}
		row := si*ix.rows + ix.rowOf(ll.LatDeg)
		ix.cellOfSat[id] = int32(row*ix.cols + ix.colOf(ll.LonDeg))
	}
	clear(ix.start)
	for _, cell := range ix.cellOfSat {
		ix.start[cell+1]++
	}
	for i := 1; i < len(ix.start); i++ {
		ix.start[i] += ix.start[i-1]
	}
	copy(ix.cursor, ix.start[:len(ix.cursor)])
	for id, cell := range ix.cellOfSat {
		k := ix.cursor[cell]
		ix.sats[k] = int32(id)
		ix.pos[k] = snapshot[id]
		ix.cursor[cell]++
	}
	return nil
}

// Window returns, per shell, the box of cells that can hold a satellite
// visible from every one of the surface points at once. It depends on the
// grid and the shells, never on the snapshot: it is a constant of an
// Earth-fixed group.
func (ix *Index) Window(users []geo.Vec3) []CellBox {
	var buf [8]geo.LatLon
	at := buf[:0]
	for _, u := range users {
		at = append(at, geo.FromECEF(u))
	}
	win := make([]CellBox, len(ix.shells))
	for si := range win {
		win[si] = ix.box(si, at)
	}
	return win
}

// box is shell si's part of Window: the intersection of the points' coverage
// bounding boxes, or a superset of it. A cap of angular radius θ about
// latitude φ spans φ±θ and, unless it holds a pole, the longitudes within
// asin(sin θ / cos φ) of its centre.
func (ix *Index) box(si int, users []geo.LatLon) CellBox {
	sh := &ix.shells[si]
	rowLo, rowHi := 0, ix.rows-1
	// Longitudes are offsets from the first user whose cap holds no pole, so
	// a window across the dateline is still one interval. Such a cap is
	// under 180° wide: the far side of another, 360° away, cannot reach an
	// interval that starts inside this one.
	lon0, lonLo, lonHi, bounded := 0.0, -180.0, 180.0, false
	for _, ll := range users {
		rowLo = max(rowLo, ix.rowOf(ll.LatDeg+sh.radDeg))
		rowHi = min(rowHi, ix.rowOf(ll.LatDeg-sh.radDeg))
		if math.Abs(ll.LatDeg)+sh.radDeg >= 90 {
			continue // the cap holds a pole: every longitude
		}
		dLon := units.Rad2Deg(math.Asin(min(1, sh.sinRad/math.Cos(units.Deg2Rad(ll.LatDeg)))))
		if !bounded {
			lon0, bounded = ll.LonDeg, true
		}
		off := math.Remainder(ll.LonDeg-lon0, 360)
		lonLo, lonHi = max(lonLo, off-dLon), min(lonHi, off+dLon)
	}
	switch {
	case rowLo > rowHi || lonLo > lonHi:
		return emptyBox
	case !bounded:
		return CellBox{uint16(rowLo), uint16(rowHi), 0, uint16(ix.cols - 1)}
	}
	return CellBox{uint16(rowLo), uint16(rowHi), uint16(ix.colOf(lon0 + lonLo)), uint16(ix.colOf(lon0 + lonHi))}
}

// Halves returns b as boxes that do not wrap the dateline — itself and an
// empty one, or its two sides — so that a scan's row loop has one contiguous
// span per row: row-major storage makes a column window one range of CSR.
func (ix *Index) Halves(b CellBox) [2]CellBox {
	if b.ColLo <= b.ColHi {
		return [2]CellBox{b, emptyBox}
	}
	return [2]CellBox{{b.RowLo, b.RowHi, 0, b.ColHi}, {b.RowLo, b.RowHi, b.ColLo, uint16(ix.cols - 1)}}
}

// RowSpan returns the CSR range [lo, hi) of row r of shell si inside the
// non-wrapping box b.
func (ix *Index) RowSpan(si int, b CellBox, r uint16) (lo, hi int32) {
	row := ix.start[(si*ix.rows+int(r))*ix.cols:]
	return row[b.ColLo], row[b.ColHi+1]
}

// ScanBox calls fn(k, d2) for every CSR position k inside box of shell si
// whose satellite is visible from ground — Observer.Visible's compare, d2
// the squared slant range. box must come from a Window that holds ground.
func (ix *Index) ScanBox(si int, box CellBox, ground geo.Vec3, fn func(k int32, d2 float64)) {
	limit2 := ix.shells[si].limit2
	for _, b := range ix.Halves(box) {
		for r := b.RowLo; r <= b.RowHi; r++ {
			for k, hi := ix.RowSpan(si, b, r); k < hi; k++ {
				rel := ix.pos[k].Sub(ground)
				if d2 := rel.Dot(rel); d2 <= limit2 {
					fn(k, d2)
				}
			}
		}
	}
}

// forEachVisible is ScanBox over the surface point's own box in every shell.
func (ix *Index) forEachVisible(ground geo.Vec3, fn func(k int32, d2 float64)) {
	at := []geo.LatLon{geo.FromECEF(ground)}
	for si := range ix.shells {
		ix.ScanBox(si, ix.box(si, at), ground, fn)
	}
}

// ReachableFrom appends a Pass for every satellite reachable from the
// surface point ground to dst and returns the extended slice — the indexed
// equivalent of Observer.Reachable over the indexed snapshot, with the same
// dst append/reuse contract. Results are grouped by shell and grid cell,
// not sorted by satellite ID.
func (ix *Index) ReachableFrom(ground geo.Vec3, dst []Pass) []Pass {
	ix.forEachVisible(ground, func(k int32, d2 float64) {
		d := math.Sqrt(d2)
		dst = append(dst, Pass{
			SatID:        int(ix.sats[k]),
			SlantKm:      d,
			ElevationDeg: ElevationDeg(ground, ix.pos[k]),
			RTTMs:        units.RTTMs(d),
		})
	})
	return dst
}

// CountReachableFrom returns how many satellites are reachable from the
// surface point without materialising the pass list.
func (ix *Index) CountReachableFrom(ground geo.Vec3) int {
	n := 0
	ix.forEachVisible(ground, func(int32, float64) { n++ })
	return n
}
