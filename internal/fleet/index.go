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
// studies while a query window stays around a hundred cells.
const DefaultCellDeg = 4

// Index is a spherical lat/lon-grid footprint index over one constellation
// snapshot. Each satellite is bucketed by its sub-satellite point; a
// reachability query visits only the cells whose great-circle distance to
// the ground point can be within the constellation's largest coverage cone,
// then applies the exact per-satellite chord test. Queries assume ground
// points on the Earth surface (AltKm 0) — the same regime where the
// elevation mask is equivalent to a central-angle bound.
//
// Rebuild the index whenever the snapshot moves (once per epoch); queries
// between rebuilds share the indexed snapshot. Rebuild is not safe
// concurrently with queries; concurrent queries are read-only and safe.
type Index struct {
	c   *constellation.Constellation
	obs *visibility.Observer

	cellDeg    float64
	rows, cols int
	// maxRadDeg is the search radius: the largest coverage central angle
	// over all shells, in degrees. A satellite visible from a surface point
	// has its subpoint within this angle of the point.
	maxRadDeg float64
	// maxSlantKm is the largest slant range at which any shell's satellites
	// are visible: no visible satellite is farther from its observer.
	maxSlantKm float64

	// CSR cell storage, rebuilt per epoch: satellites of cell i are
	// sats[start[i]:start[i+1]], ascending by ID. posCSR and chord2CSR
	// mirror sats in the same order so a query streams contiguous memory
	// (the linear scan's one advantage) instead of gathering random IDs.
	start     []int32
	sats      []int32
	posCSR    []geo.Vec3
	chord2CSR []float64
	cellOfSat []int32
	cursor    []int32
	snap      []geo.Vec3

	// chord2[id] is the squared max slant range of satellite id — the same
	// threshold visibility.Observer applies.
	chord2 []float64
	// cosRow[r] is the minimum |cos lat| over row r's latitude band,
	// precomputed so the query's per-row haversine bound does no trig.
	cosRow []float64
}

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
	}
	for _, sh := range c.Shells {
		rad := units.Rad2Deg(visibility.CoverageCentralAngleRad(sh.AltitudeKm, sh.MinElevationDeg))
		if rad > ix.maxRadDeg {
			ix.maxRadDeg = rad
		}
		ix.maxSlantKm = max(ix.maxSlantKm, visibility.MaxSlantRangeKm(sh.AltitudeKm, sh.MinElevationDeg))
	}
	cells := ix.rows * ix.cols
	ix.start = make([]int32, cells+1)
	ix.cursor = make([]int32, cells)
	ix.sats = make([]int32, c.Size())
	ix.posCSR = make([]geo.Vec3, c.Size())
	ix.chord2CSR = make([]float64, c.Size())
	ix.cellOfSat = make([]int32, c.Size())
	ix.chord2 = make([]float64, c.Size())
	for id := range c.Satellites {
		sh := c.Shells[c.Satellites[id].ShellIndex]
		d := visibility.MaxSlantRangeKm(sh.AltitudeKm, sh.MinElevationDeg)
		ix.chord2[id] = d * d
	}
	ix.cosRow = make([]float64, ix.rows)
	for r := range ix.cosRow {
		latTop := 90 - float64(r)*cellDeg
		latBot := latTop - cellDeg
		ix.cosRow[r] = math.Min(math.Cos(units.Deg2Rad(latTop)), math.Cos(units.Deg2Rad(latBot)))
	}
	return ix, nil
}

// Observer returns the exact visibility evaluator the index filters with.
func (ix *Index) Observer() *visibility.Observer { return ix.obs }

// CellDeg returns the grid cell size in degrees.
func (ix *Index) CellDeg() float64 { return ix.cellDeg }

// rowOf maps a latitude to a grid row (clamped).
func (ix *Index) rowOf(latDeg float64) int {
	r := int((90 - latDeg) / ix.cellDeg)
	if r < 0 {
		return 0
	}
	if r >= ix.rows {
		return ix.rows - 1
	}
	return r
}

// colOf maps a longitude to a grid column (wrapped).
func (ix *Index) colOf(lonDeg float64) int {
	c := int(math.Floor((lonDeg + 180) / ix.cellDeg))
	c %= ix.cols
	if c < 0 {
		c += ix.cols
	}
	return c
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
		ix.cellOfSat[id] = int32(ix.rowOf(ll.LatDeg)*ix.cols + ix.colOf(ll.LonDeg))
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
		ix.chord2CSR[k] = ix.chord2[id]
		ix.cursor[cell]++
	}
}

// Snapshot returns the snapshot the index was last rebuilt on.
func (ix *Index) Snapshot() []geo.Vec3 { return ix.snap }

// ForEachNear calls fn(satID, pos) for every satellite whose subpoint may
// lie within (max coverage angle + extraKm of surface arc) of the given
// surface point — a superset of the satellites visible from any point
// within extraKm of it. Candidates are a small constant factor over the
// true reachable set; callers apply their own exact test. Iteration order
// is deterministic (row-major cells, ascending IDs within a cell).
func (ix *Index) ForEachNear(latDeg, lonDeg, extraKm float64, fn func(satID int, pos geo.Vec3)) {
	ix.forEachRange(latDeg, lonDeg, extraKm, func(lo, hi int32) {
		for k := lo; k < hi; k++ {
			fn(int(ix.sats[k]), ix.posCSR[k])
		}
	})
}

// forEachRange yields the CSR spans [lo, hi) of the cells a query window
// touches: the row/column windowing shared by every query path.
func (ix *Index) forEachRange(latDeg, lonDeg, extraKm float64, fn func(lo, hi int32)) {
	radDeg := ix.maxRadDeg + units.Rad2Deg(extraKm/units.EarthRadiusKm) + 1e-9
	radRad := units.Deg2Rad(radDeg)
	sinHalfRad := math.Sin(radRad / 2)
	cosG := math.Cos(units.Deg2Rad(latDeg))

	rowLo := ix.rowOf(latDeg + radDeg)
	rowHi := ix.rowOf(latDeg - radDeg)
	for r := rowLo; r <= rowHi; r++ {
		// Haversine bound: sin²(Δλ/2) ≤ sin²(θ/2)/(cos φ₁·cos φ₂), with
		// cos φ₂ the row's precomputed band minimum.
		full := false
		var dLonDeg float64
		prod := cosG * ix.cosRow[r]
		if prod < 1e-9 {
			full = true
		} else if s := sinHalfRad / math.Sqrt(prod); s >= 1 {
			full = true
		} else {
			dLonDeg = units.Rad2Deg(2 * math.Asin(s))
			if 2*dLonDeg >= 360-ix.cellDeg {
				full = true
			}
		}

		// Row-major CSR means a contiguous column window is one contiguous
		// span of sats — visit it as 1–2 flat segments, not per-cell.
		base := r * ix.cols
		if full {
			fn(ix.start[base], ix.start[base+ix.cols])
			continue
		}
		colLo := ix.colOf(lonDeg - dLonDeg)
		colHi := ix.colOf(lonDeg + dLonDeg)
		if colLo <= colHi {
			fn(ix.start[base+colLo], ix.start[base+colHi+1])
		} else { // window wraps the dateline
			fn(ix.start[base+colLo], ix.start[base+ix.cols])
			fn(ix.start[base], ix.start[base+colHi+1])
		}
	}
}

// ReachableFrom appends a Pass for every satellite reachable from the
// surface point ground to dst and returns the extended slice — the indexed
// equivalent of Observer.Reachable over the indexed snapshot, with the same
// dst append/reuse contract. Results are grouped by grid cell, not sorted
// by satellite ID.
func (ix *Index) ReachableFrom(ground geo.Vec3, dst []visibility.Pass) []visibility.Pass {
	ll := geo.FromECEF(ground)
	pos, chord2 := ix.posCSR, ix.chord2CSR
	ix.forEachRange(ll.LatDeg, ll.LonDeg, 0, func(lo, hi int32) {
		for k := lo; k < hi; k++ {
			rel := pos[k].Sub(ground)
			d2 := rel.Dot(rel)
			if d2 > chord2[k] {
				continue
			}
			d := math.Sqrt(d2)
			dst = append(dst, visibility.Pass{
				SatID:        int(ix.sats[k]),
				SlantKm:      d,
				ElevationDeg: visibility.ElevationDeg(ground, pos[k]),
				RTTMs:        units.RTTMs(d),
			})
		}
	})
	return dst
}

// CountReachableFrom returns how many satellites are reachable from the
// surface point without materialising the pass list.
func (ix *Index) CountReachableFrom(ground geo.Vec3) int {
	ll := geo.FromECEF(ground)
	pos, chord2 := ix.posCSR, ix.chord2CSR
	n := 0
	ix.forEachRange(ll.LatDeg, ll.LonDeg, 0, func(lo, hi int32) {
		for k := lo; k < hi; k++ {
			rel := pos[k].Sub(ground)
			if rel.Dot(rel) <= chord2[k] {
				n++
			}
		}
	})
	return n
}
