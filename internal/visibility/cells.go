package visibility

import (
	"math"
	"sort"

	"repro/internal/geo"
	"repro/internal/units"
)

// The trig-free cell lookup behind Index.Rebuild. A grid row is a step
// function of z/r, the sine of the latitude, and a grid column a step
// function of x/ρ, the cosine of the longitude (ρ the distance from the
// polar axis), on either side of the x–z plane. One table per step function
// answers it with a multiply and a load. Only a bin that holds a step knows
// less: an argument within cellTol of the step, or anywhere in a bin that
// holds two, takes geo.FromECEF + rowOf/colOf — so every cell is the trig
// path's bit for bit.

// cellBins is the number of table bins per unit of argument. At the default
// 4° cell the closest steps, beside the poles and the dateline, lie
// 1 − cos 4° ≈ 0.0024 apart, more than a bin: no bin holds two.
const cellBins = 512

// cellTol is the half-width of the window about a step whose arguments take
// the trig path. Sine and cosine move by at most their angle's change, so an
// argument outside it sits over 1e-9 rad (6e-8°) of latitude or longitude
// from the step; asin, atan2 and the rounding of z/r, x/ρ and the bin's
// index move a cell boundary by some 1e-14°.
const cellTol = 1e-9

// cellBin is one table bin: arguments below lo are in cell below, above hi
// in cell above, and [lo, hi] — the window about the bin's one step, or
// everything for a bin with more — takes the trig path. A bin with no step
// has lo = hi = +Inf.
type cellBin struct {
	lo, hi       float64
	below, above int32
}

// cellTable tabulates one step function over [-1, 1].
type cellTable []cellBin

// lookup returns the cell of argument x in [-1, 1], false when x lies in a
// step's window and the trig path must decide it.
func (t cellTable) lookup(x float64) (int, bool) {
	b := &t[int((x+1)*cellBins)]
	switch {
	case x < b.lo:
		return int(b.below), true
	case x > b.hi:
		return int(b.above), true
	}
	return 0, false
}

// newCellTable tabulates cellAt, a function of x in [-1, 1] that changes
// value only at the given steps.
func newCellTable(steps []float64, cellAt func(x float64) int) cellTable {
	sort.Float64s(steps)
	t := make(cellTable, 2*cellBins+1)
	for b := range t {
		lo := float64(b)/cellBins - 1
		hi := lo + 1.0/cellBins
		i := sort.SearchFloat64s(steps, lo-cellTol)
		n := sort.SearchFloat64s(steps, math.Nextafter(hi+cellTol, 2)) - i
		switch {
		case n == 0:
			t[b] = cellBin{lo: math.Inf(1), hi: math.Inf(1), below: int32(cellAt(min((lo+hi)/2, 1)))}
		case n == 1:
			s := steps[i]
			t[b] = cellBin{
				lo: s - cellTol, hi: s + cellTol,
				below: int32(cellAt(max(s-2*cellTol, -1))), above: int32(cellAt(min(s+2*cellTol, 1))),
			}
		default:
			t[b] = cellBin{lo: math.Inf(-1), hi: math.Inf(1)}
		}
	}
	return t
}

// cellTables are the three tables of one grid: rows over z/r, and columns
// over x/ρ east of the x–z plane (y ≥ +0) and west of it.
type cellTables struct {
	lat, east, west cellTable
}

// newCellTables tabulates ix's grid.
func newCellTables(ix *Index) cellTables {
	// A row changes where (90 − lat)/cellDeg crosses 1..rows−1; a column
	// where (lon + 180)/cellDeg crosses 1..cols−1, and at the dateline, where
	// colOf wraps +180° to column 0 and a longitude a rounding past −180°
	// to the last column.
	var rows, east, west []float64
	for k := 1; k < ix.rows; k++ {
		rows = append(rows, math.Sin(units.Deg2Rad(90-float64(k)*ix.cellDeg)))
	}
	east, west = []float64{-1}, []float64{-1}
	for j := 1; j < ix.cols; j++ {
		lon := float64(j)*ix.cellDeg - 180
		if lon >= 0 {
			east = append(east, math.Cos(units.Deg2Rad(lon)))
		}
		if lon <= 0 {
			west = append(west, math.Cos(units.Deg2Rad(lon)))
		}
	}
	return cellTables{
		lat:  newCellTable(rows, func(x float64) int { return ix.rowOf(units.Rad2Deg(math.Asin(x))) }),
		east: newCellTable(east, func(x float64) int { return ix.colOf(units.Rad2Deg(math.Acos(x))) }),
		west: newCellTable(west, func(x float64) int { return ix.colOf(-units.Rad2Deg(math.Acos(x))) }),
	}
}

// finite reports whether every coordinate of v is a finite number.
func finite(v geo.Vec3) bool {
	for _, x := range [3]float64{v.X, v.Y, v.Z} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// cell returns the grid row and column of the finite position p, and its
// altitude: geo.FromECEF followed by rowOf and colOf, read from the tables
// wherever they decide it. A position within 1e-100 km of the polar axis,
// or out past 1e100 km where its squares would overflow, takes the trig
// path whole.
func (ix *Index) cell(p geo.Vec3) (row, col int, altKm float64) {
	r := p.Norm()
	if rho := math.Sqrt(p.X*p.X + p.Y*p.Y); rho > 1e-100 && r < 1e100 {
		lon := ix.tabs.east
		if math.Signbit(p.Y) {
			lon = ix.tabs.west
		}
		var ok bool
		if row, ok = ix.tabs.lat.lookup(p.Z / r); ok {
			if col, ok = lon.lookup(p.X / rho); ok {
				return row, col, r - units.EarthRadiusKm
			}
		}
	}
	ll := geo.FromECEF(p)
	return ix.rowOf(ll.LatDeg), ix.colOf(ll.LonDeg), ll.AltKm
}
