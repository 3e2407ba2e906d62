package visibility

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/units"
)

// trigCell is the cell Rebuild computed before the tables: geo.FromECEF and
// the grid's rounding of its latitude and longitude.
func trigCell(ix *Index, p geo.Vec3) (row, col int, altKm float64) {
	ll := geo.FromECEF(p)
	return ix.rowOf(ll.LatDeg), ix.colOf(ll.LonDeg), ll.AltKm
}

// decided reports whether the tables alone place p, without the trig path.
func decided(ix *Index, p geo.Vec3) bool {
	r, rho := p.Norm(), math.Sqrt(p.X*p.X+p.Y*p.Y)
	if !(rho > 1e-100 && r < 1e100) {
		return false
	}
	lon := ix.tabs.east
	if math.Signbit(p.Y) {
		lon = ix.tabs.west
	}
	_, okRow := ix.tabs.lat.lookup(p.Z / r)
	_, okCol := lon.lookup(p.X / rho)
	return okRow && okCol
}

// checkCell fails unless ix.cell(p) is the trig path's cell and altitude,
// bit for bit.
func checkCell(t *testing.T, ix *Index, p geo.Vec3) {
	t.Helper()
	row, col, alt := ix.cell(p)
	wantRow, wantCol, wantAlt := trigCell(ix, p)
	if row != wantRow || col != wantCol || math.Float64bits(alt) != math.Float64bits(wantAlt) {
		t.Fatalf("%.17g° cells, %+v: cell (%d, %d) at %v km, trig path (%d, %d) at %v km",
			ix.cellDeg, p, row, col, alt, wantRow, wantCol, wantAlt)
	}
}

// TestRebuildMatchesTrig proves the tables against the trig path: every
// satellite of three presets' frames over a polar orbit's period — both
// poles and the dateline crossed — lands in the cell the trig path gives it,
// so the CSR is the one it always was; and so do random directions at
// orbital radii, and every row and column edge of six grids. The tables must
// decide nearly all of the satellites and directions.
func TestRebuildMatchesTrig(t *testing.T) {
	// The gate is on the full run: 200 frames 30 s apart and 2 M random
	// directions. -short samples it — every tenth frame and 100 k
	// directions — and weighs each sampled position by how many of the full
	// run's it stands for, so both modes estimate one ratio. Frame 0 is its
	// own stratum at weight 1: at t = 0 the symmetric layouts put
	// satellites on cell edges, and counted as a tenth of the frames it
	// would carry ten times its share of the fallbacks.
	const fullFrames, fullDirections = 200, 2_000_000
	frames, directions := fullFrames, fullDirections
	if testing.Short() {
		frames, directions = 20, 100_000
	}
	frameWeight := func(f int) float64 {
		if f == 0 {
			return 1
		}
		return float64(fullFrames-1) / float64(frames-1)
	}
	var total, fellBack int
	var totalW, fellBackW float64
	for _, name := range []string{"starlink", "kuiper", "telesat"} {
		c, err := constellation.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewIndex(NewObserver(c), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int32, c.Size())
		for f := 0; f < frames; f++ {
			snap := c.Snapshot(float64(f) * 6000 / float64(frames))
			if err := ix.Rebuild(snap); err != nil {
				t.Fatal(err)
			}
			for id, p := range snap {
				row, col, _ := trigCell(ix, p)
				want[id] = int32((c.Satellites[id].ShellIndex*ix.rows+row)*ix.cols + col)
				if !decided(ix, p) {
					fellBack++
					fellBackW += frameWeight(f)
				}
			}
			total += len(snap)
			totalW += frameWeight(f) * float64(len(snap))
			for id := range want {
				if ix.cellOfSat[id] != want[id] {
					t.Fatalf("%s frame %d: satellite %d in cell %d, trig path %d", name, f, id, ix.cellOfSat[id], want[id])
				}
			}
		}
	}

	ix, err := NewIndex(NewObserver(starlink(t)), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	directionWeight := float64(fullDirections) / float64(directions)
	for i := 0; i < directions; i++ {
		p := geo.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		p = p.Scale((units.EarthRadiusKm + 300 + 1700*rng.Float64()) / p.Norm())
		checkCell(t, ix, p)
		if !decided(ix, p) {
			fellBack++
			fellBackW += directionWeight
		}
	}
	total += directions
	totalW += directionWeight * float64(directions)
	t.Logf("%d positions, %d took the trig path; weighted to the full run, %.0f of %.0f", total, fellBack, fellBackW, totalW)
	if fellBackW*10_000 > totalW {
		t.Fatalf("%.0f of %.0f positions (weighted to the full run) took the trig path: the tables decide too little", fellBackW, totalW)
	}

	for _, n := range edgeGrids {
		grid := gridIndex(fuzzCellDeg(n))
		for _, p := range onGrid(grid.cellDeg, 600, 1) {
			checkCell(t, grid, p)
		}
	}
}

// gridIndex is an index of a cellDeg grid with no constellation: enough
// for cell.
func gridIndex(cellDeg float64) *Index {
	ix := &Index{cellDeg: cellDeg, rows: int(math.Ceil(180 / cellDeg)), cols: int(math.Ceil(360 / cellDeg))}
	ix.tabs = newCellTables(ix)
	return ix
}

// fuzzCellDeg maps a fuzz input to one of the 300 grids 0.1°, 0.2°, ...,
// 30°, all of which NewIndex accepts; most are not symmetric about 0°.
func fuzzCellDeg(n uint16) float64 { return float64(1+n%300) / 10 }

// onGrid returns positions at radius km on the row and column edges of a
// cellDeg grid (every stride-th of them), each at a few positions along the
// edge: mid-cell, on a crossing edge, and at the poles and the dateline.
func onGrid(cellDeg, km float64, stride int) []geo.Vec3 {
	var ps []geo.Vec3
	at := func(lat, lon float64) { ps = append(ps, geo.LatLon{LatDeg: lat, LonDeg: lon, AltKm: km}.ECEF()) }
	for k := 0; float64(k)*cellDeg <= 180; k += stride {
		lat := 90 - float64(k)*cellDeg
		for _, lon := range []float64{cellDeg / 2, -180 + cellDeg, 180, 0, math.Copysign(0, -1)} {
			at(lat, lon)
		}
	}
	for j := 0; float64(j)*cellDeg <= 360; j += stride {
		lon := float64(j)*cellDeg - 180
		for _, lat := range []float64{cellDeg / 2, 90 - cellDeg, 90, -90, 0} {
			at(lat, lon)
		}
	}
	return ps
}

// edgeGrids are fuzzCellDeg's inputs for 4° (the default), 7°, 0.1° (the
// finest: bins hold several steps), 30°, 2.5° and 13°.
var edgeGrids = []uint16{39, 69, 0, 299, 24, 129}

// FuzzCellMatchesTrig: every finite position gets the trig path's cell and
// altitude on any grid NewIndex accepts, and every non-finite one is
// ErrNonFinite. Seeds sit on row and column edges, the poles, ±180°, signed
// zeros, and grids not symmetric about 0° — a sample of each grid's edges,
// so the fuzzer starts mutating within CI's ten seconds;
// TestRebuildMatchesTrig walks all of them.
func FuzzCellMatchesTrig(f *testing.F) {
	c, err := constellation.Build("one", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 1, SatsPerPlane: 1, MinElevationDeg: 25},
	}, constellation.Config{})
	if err != nil {
		f.Fatal(err)
	}
	one, err := NewIndex(NewObserver(c), 0)
	if err != nil {
		f.Fatal(err)
	}
	const km = 600
	for _, n := range edgeGrids {
		cellDeg := fuzzCellDeg(n)
		for _, p := range onGrid(cellDeg, km, max(1, int(45/cellDeg))) {
			f.Add(p.X, p.Y, p.Z, n)
		}
	}
	r := units.EarthRadiusKm + km
	for _, p := range [][3]float64{
		{0, 0, r}, {0, 0, -r}, // the poles
		{-r, 0, 0}, {-r, math.Copysign(0, -1), 0}, {-r, 1e-300, 1}, {-r, -1e-300, 1}, // ±180°
		{r, 0, 0}, {r, math.Copysign(0, -1), 0}, {0, r, 0}, {0, -r, 5}, // y = ±0, x = 0
		{math.NaN(), 0, r}, {0, math.Inf(1), 0}, {0, 0, math.Inf(-1)}, {math.Inf(1), math.NaN(), 1},
		{1e-200, 1e-200, r}, {1e200, 1e200, 1}, {3000, -4000, 5000},
	} {
		f.Add(p[0], p[1], p[2], uint16(39))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 32; i++ {
		f.Add(rng.NormFloat64()*r, rng.NormFloat64()*r, rng.NormFloat64()*r, uint16(rng.Intn(300)))
	}
	f.Fuzz(func(t *testing.T, x, y, z float64, n uint16) {
		p := geo.Vec3{X: x, Y: y, Z: z}
		err := one.Rebuild([]geo.Vec3{p})
		if !finite(p) {
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%+v: %v, want ErrNonFinite", p, err)
			}
			return
		}
		if errors.Is(err, ErrNonFinite) {
			t.Fatalf("%+v: finite position refused: %v", p, err)
		}
		checkCell(t, gridIndex(fuzzCellDeg(n)), p)
	})
}

// BenchmarkRebuild re-buckets the Starlink preset, one frame an op.
func BenchmarkRebuild(b *testing.B) {
	c := starlink(b)
	ix, err := NewIndex(NewObserver(c), 0)
	if err != nil {
		b.Fatal(err)
	}
	snaps := make([][]geo.Vec3, 16)
	for i := range snaps {
		snaps[i] = c.Snapshot(float64(i) * 60)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Rebuild(snaps[i%len(snaps)]); err != nil {
			b.Fatal(err)
		}
	}
}
