// Package fleet is the fleet-scale session orchestrator — the control
// plane of the in-orbit compute service. Where internal/meetup places one
// user group at a time with full per-group machinery, fleet places and
// migrates hundreds of thousands of concurrent sessions across the whole
// constellation under per-satellite capacity constraints:
//
//   - a spherical lat/lon-grid footprint index (Index) makes reachable-set
//     queries O(cells touched) instead of the O(N) scan of
//     visibility.Observer.Reachable, rebuilt once per epoch and shared by
//     every query of that epoch;
//   - a sharded session table (Table) holds the session population with
//     per-shard locking so ingest and scans scale across cores;
//   - an epoch-batched hand-off planner (Orchestrator) advances simulated
//     time in fixed steps, detects assignments about to lose visibility,
//     re-places them Sticky-style (longest remaining visibility within a
//     latency band) under load-aware admission, and costs every migration
//     over the ISL grid (internal/netgraph) with the live-migration model
//     (internal/migrate).
//
// Everything is deterministic under a fixed workload: parallel phases write
// to disjoint slots and all order-sensitive decisions happen in session-ID
// order.
package fleet

import (
	"fmt"
	"math"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/units"
	"repro/internal/visibility"
)

// DefaultCellDeg is the default footprint-index cell size. ~4° keeps the
// per-cell occupancy near one satellite for the constellations the paper
// studies while a shell's query box stays a few dozen cells.
const DefaultCellDeg = 4

// Index is a spherical lat/lon-grid footprint index over one constellation
// snapshot: one grid per shell, each satellite bucketed by its sub-satellite
// point. A shell has one altitude and one elevation mask, hence one coverage
// cone and one slant-range limit, so a reachability query visits, per
// shell, only the cells that can lie within that shell's cone of the
// ground point, then applies the exact chord test against that one limit.
// Queries assume ground points on the Earth surface (AltKm 0) — the same
// regime where the elevation mask is equivalent to a central-angle bound.
//
// Rebuild the index whenever the snapshot moves (once per epoch); queries
// between rebuilds share the indexed snapshot. Rebuild is not safe
// concurrently with queries; concurrent queries are read-only and safe.
type Index struct {
	c   *constellation.Constellation
	obs *visibility.Observer

	cellDeg    float64
	rows, cols int
	// maxSlantKm is the largest slant range at which any shell's satellites
	// are visible: no visible satellite is farther from its observer.
	maxSlantKm float64
	shells     []shellGeom

	// CSR cell storage, the shells' row-major grids back to back, rebuilt per
	// epoch: the satellites of shell s in cell i are
	// sats[start[s·rows·cols+i]:start[s·rows·cols+i+1]], ascending by ID.
	// posCSR mirrors sats in the same order so a query streams contiguous
	// memory (the linear scan's one advantage) instead of gathering random
	// IDs, and a row's column window is one contiguous span of it.
	start     []int32
	sats      []int32
	posCSR    []geo.Vec3
	cellOfSat []int32
	cursor    []int32
	snap      []geo.Vec3
}

// shellGeom is one shell's visibility geometry.
type shellGeom struct {
	// limit2 is the squared max slant range: a satellite of the shell is
	// visible iff |sat−ground|² ≤ limit2 — the same threshold
	// visibility.Observer applies.
	limit2 float64
	// radDeg is the coverage central angle in degrees, plus rounding slack:
	// a visible satellite's subpoint lies within it of the ground point.
	radDeg, sinRad float64
}

// cellBox is a rectangle of one shell's grid: rows rowLo..rowHi by columns
// colLo..colHi, all inclusive. colLo > colHi wraps the dateline; rowLo >
// rowHi is the empty box.
type cellBox struct{ rowLo, rowHi, colLo, colHi uint16 }

var emptyBox = cellBox{rowLo: 1}

// NewIndex builds an empty index for the constellation. cellDeg is the grid
// cell size in degrees; zero means DefaultCellDeg. Call Rebuild before
// querying.
func NewIndex(c *constellation.Constellation, cellDeg float64) (*Index, error) {
	if cellDeg == 0 {
		cellDeg = DefaultCellDeg
	}
	if cellDeg < 0.1 || cellDeg > 30 {
		return nil, fmt.Errorf("fleet: cell size %v° outside [0.1,30]", cellDeg)
	}
	if c == nil || c.Size() == 0 {
		return nil, fmt.Errorf("fleet: empty constellation")
	}
	ix := &Index{
		c:       c,
		obs:     visibility.NewObserver(c),
		cellDeg: cellDeg,
		rows:    int(math.Ceil(180 / cellDeg)),
		cols:    int(math.Ceil(360 / cellDeg)),
		shells:  make([]shellGeom, len(c.Shells)),
	}
	for si, sh := range c.Shells {
		d := visibility.MaxSlantRangeKm(sh.AltitudeKm, sh.MinElevationDeg)
		rad := units.Rad2Deg(visibility.CoverageCentralAngleRad(sh.AltitudeKm, sh.MinElevationDeg)) + 1e-6
		ix.shells[si] = shellGeom{limit2: d * d, radDeg: rad, sinRad: math.Sin(units.Deg2Rad(rad))}
		ix.maxSlantKm = max(ix.maxSlantKm, d)
	}
	cells := len(c.Shells) * ix.rows * ix.cols
	ix.start = make([]int32, cells+1)
	ix.cursor = make([]int32, cells)
	ix.sats = make([]int32, c.Size())
	ix.posCSR = make([]geo.Vec3, c.Size())
	ix.cellOfSat = make([]int32, c.Size())
	return ix, nil
}

// Observer returns the exact visibility evaluator the index filters with.
func (ix *Index) Observer() *visibility.Observer { return ix.obs }

// CellDeg returns the grid cell size in degrees.
func (ix *Index) CellDeg() float64 { return ix.cellDeg }

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

// Rebuild re-buckets every satellite by its subpoint in the snapshot.
// snapshot must be indexed by satellite ID (Constellation.Snapshot order)
// and is retained by reference until the next Rebuild — callers that reuse
// snapshot buffers must not overwrite them while queries are in flight.
func (ix *Index) Rebuild(snapshot []geo.Vec3) {
	if len(snapshot) != ix.c.Size() {
		panic(fmt.Sprintf("fleet: snapshot has %d satellites, constellation %d", len(snapshot), ix.c.Size()))
	}
	ix.snap = snapshot
	for id, pos := range snapshot {
		ll := geo.FromECEF(pos)
		row := ix.c.Satellites[id].ShellIndex*ix.rows + ix.rowOf(ll.LatDeg)
		ix.cellOfSat[id] = int32(row*ix.cols + ix.colOf(ll.LonDeg))
	}
	for i := range ix.start {
		ix.start[i] = 0
	}
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
		ix.posCSR[k] = snapshot[id]
		ix.cursor[cell]++
	}
}

// Snapshot returns the snapshot the index was last rebuilt on.
func (ix *Index) Snapshot() []geo.Vec3 { return ix.snap }

// window returns, per shell, the box of cells that can hold a satellite
// visible from every one of the surface points at once. It depends on the
// grid and the shells, never on the snapshot: it is a constant of an
// Earth-fixed group.
func (ix *Index) window(users []geo.Vec3) []cellBox {
	var buf [8]geo.LatLon
	at := buf[:0]
	for _, u := range users {
		at = append(at, geo.FromECEF(u))
	}
	win := make([]cellBox, len(ix.shells))
	for si := range win {
		win[si] = ix.box(si, at)
	}
	return win
}

// box is shell si's part of window: the intersection of the points' coverage
// bounding boxes, or a superset of it. A cap of angular radius θ about
// latitude φ spans φ±θ and, unless it holds a pole, the longitudes within
// asin(sin θ / cos φ) of its centre.
func (ix *Index) box(si int, users []geo.LatLon) cellBox {
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
		return cellBox{uint16(rowLo), uint16(rowHi), 0, uint16(ix.cols - 1)}
	}
	return cellBox{uint16(rowLo), uint16(rowHi), uint16(ix.colOf(lon0 + lonLo)), uint16(ix.colOf(lon0 + lonHi))}
}

// halves returns b as boxes that do not wrap the dateline — itself and an
// empty one, or its two sides — so that a scan's row loop has one contiguous
// span per row: row-major storage makes a column window one range of sats.
func (ix *Index) halves(b cellBox) [2]cellBox {
	if b.colLo <= b.colHi {
		return [2]cellBox{b, emptyBox}
	}
	return [2]cellBox{{b.rowLo, b.rowHi, 0, b.colHi}, {b.rowLo, b.rowHi, b.colLo, uint16(ix.cols - 1)}}
}

// rowSpan returns the CSR range [lo, hi) of row r of shell si inside the
// non-wrapping box b.
func (ix *Index) rowSpan(si int, b cellBox, r uint16) (lo, hi int32) {
	row := ix.start[(si*ix.rows+int(r))*ix.cols:]
	return row[b.colLo], row[b.colHi+1]
}

// forEachVisible calls fn(k, d2) for every CSR position k whose satellite
// is visible from the surface point, d2 its squared slant range.
func (ix *Index) forEachVisible(ground geo.Vec3, fn func(k int32, d2 float64)) {
	at := []geo.LatLon{geo.FromECEF(ground)}
	for si, sh := range ix.shells {
		for _, b := range ix.halves(ix.box(si, at)) {
			for r := b.rowLo; r <= b.rowHi; r++ {
				for k, hi := ix.rowSpan(si, b, r); k < hi; k++ {
					rel := ix.posCSR[k].Sub(ground)
					if d2 := rel.Dot(rel); d2 <= sh.limit2 {
						fn(k, d2)
					}
				}
			}
		}
	}
}

// ReachableFrom appends a Pass for every satellite reachable from the
// surface point ground to dst and returns the extended slice — the indexed
// equivalent of Observer.Reachable over the indexed snapshot, with the same
// dst append/reuse contract. Results are grouped by shell and grid cell,
// not sorted by satellite ID.
func (ix *Index) ReachableFrom(ground geo.Vec3, dst []visibility.Pass) []visibility.Pass {
	ix.forEachVisible(ground, func(k int32, d2 float64) {
		d := math.Sqrt(d2)
		dst = append(dst, visibility.Pass{
			SatID:        int(ix.sats[k]),
			SlantKm:      d,
			ElevationDeg: visibility.ElevationDeg(ground, ix.posCSR[k]),
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
