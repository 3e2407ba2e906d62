package visibility

import (
	"math/bits"
	"sync"

	"repro/internal/geo"
)

// Surface answers, frame after frame, which satellites each of a fixed set of
// ground points sees: the question behind netgraph's freeze, serve's refresh
// and Figures 4 and 5. It is the one place that chooses how to answer it.
// From IndexMinGrounds surface points up it buckets each frame into an Index
// and tests, per ground, only the satellites inside that ground's cell boxes
// — static, since ground points are Earth-fixed. Below the crossover, for a
// ground off the surface, for an observer NewIndex refuses and for a frame
// Rebuild refuses (a wrong size, a non-finite position, a satellite below its
// shell's lowest orbit), it tests every (ground, satellite) pair. Both scans
// apply Observer.Visible's compare and hand out the same rows.
type Surface struct {
	obs     *Observer
	grounds []geo.Vec3
	// boxes holds one cell box per (ground, shell), ground-major: the cells
	// of the shell that can hold a satellite visible from the ground. nil
	// when every scan is linear.
	boxes []CellBox
	// free holds the idle scans, one per Scan that ever ran at once. Unlike
	// a sync.Pool it survives the collector, so a loop of scans allocates
	// nothing once warm.
	mu   sync.Mutex
	free []*surfaceScan
}

// surfaceScan is one Scan's scratch.
type surfaceScan struct {
	// ix buckets the frame; nil on a linear-only Surface.
	ix *Index
	// seen is the bitmap of one ground's visible satellites; ids holds every
	// ground's row back to back, ground gi's ending at ends[gi], which rows
	// slices.
	seen []uint64
	ids  []int32
	ends []int
	rows [][]int32
}

// NewSurface builds the Surface of the observer's constellation over the
// ground points.
func NewSurface(o *Observer, grounds []geo.LatLon) *Surface {
	s := &Surface{obs: o, grounds: make([]geo.Vec3, len(grounds))}
	for i, g := range grounds {
		s.grounds[i] = g.ECEF()
	}
	if len(grounds) >= IndexMinGrounds {
		s.useIndex(grounds)
	}
	return s
}

// useIndex draws every ground's cell boxes and keeps the index it drew them
// with as the first idle scan's. It leaves the Surface linear for a ground
// off the surface (the boxes bound central angles from the surface) or an
// observer NewIndex refuses.
func (s *Surface) useIndex(grounds []geo.LatLon) {
	for _, g := range grounds {
		if g.AltKm != 0 {
			return
		}
	}
	ix, err := NewIndex(s.obs, 0)
	if err != nil {
		return
	}
	s.boxes = make([]CellBox, 0, len(grounds)*len(ix.shells))
	for _, g := range s.grounds {
		s.boxes = append(s.boxes, ix.Window([]geo.Vec3{g})...)
	}
	s.free = append(s.free, s.newScan(ix))
}

// Indexed reports whether the Surface scans through the footprint index
// (for each frame the index accepts) rather than testing every pair.
func (s *Surface) Indexed() bool { return s.boxes != nil }

func (s *Surface) newScan(ix *Index) *surfaceScan {
	sc := &surfaceScan{ix: ix, ends: make([]int, len(s.grounds)), rows: make([][]int32, len(s.grounds))}
	if ix != nil {
		sc.seen = make([]uint64, (s.obs.c.Size()+63)/64)
	}
	return sc
}

// Scan calls fn once with rows, ground-major: rows[gi] holds the IDs of the
// satellites ground gi sees in frame, ascending. frame is indexed by
// satellite ID (Constellation.Snapshot order). The rows are scratch, valid
// only until fn returns. With no grounds, fn gets no rows and the frame is
// not read. Safe for concurrent use.
func (s *Surface) Scan(frame []geo.Vec3, fn func(rows [][]int32)) {
	if len(s.grounds) == 0 {
		fn(nil)
		return
	}
	sc := s.take()
	defer s.give(sc)
	if sc.ix != nil && sc.ix.Rebuild(frame) == nil {
		sc.ids = s.indexed(sc)
	} else {
		sc.ids = s.linear(sc, frame)
	}
	// The slab has stopped growing: carve the rows.
	lo := 0
	for gi, hi := range sc.ends {
		sc.rows[gi] = sc.ids[lo:hi]
		lo = hi
	}
	fn(sc.rows)
}

// linear tests every (ground, satellite) pair.
func (s *Surface) linear(sc *surfaceScan, frame []geo.Vec3) []int32 {
	ids := sc.ids[:0]
	for gi, g := range s.grounds {
		for id, p := range frame {
			if s.obs.Visible(g, id, p) {
				ids = append(ids, int32(id))
			}
		}
		sc.ends[gi] = len(ids)
	}
	return ids
}

// indexed tests, per ground, the satellites inside its boxes of the bucketed
// frame. A ground's hits are marked in the bitmap and read back in ascending
// ID order — the linear scan's row order, without a sort.
func (s *Surface) indexed(sc *surfaceScan) []int32 {
	ids, seen := sc.ids[:0], sc.seen
	sats, _ := sc.ix.CSR()
	mark := func(k int32, _ float64) { seen[sats[k]>>6] |= 1 << (sats[k] & 63) }
	shells := len(s.boxes) / len(s.grounds)
	for gi, g := range s.grounds {
		for si, box := range s.boxes[gi*shells : (gi+1)*shells] {
			sc.ix.ScanBox(si, box, g, mark)
		}
		for w, word := range seen {
			for ; word != 0; word &= word - 1 {
				ids = append(ids, int32(w<<6+bits.TrailingZeros64(word)))
			}
			seen[w] = 0
		}
		sc.ends[gi] = len(ids)
	}
	return ids
}

// take returns an idle scan, or a new one.
func (s *Surface) take() *surfaceScan {
	var sc *surfaceScan
	s.mu.Lock()
	if last := len(s.free) - 1; last >= 0 {
		sc, s.free = s.free[last], s.free[:last]
	}
	s.mu.Unlock()
	if sc != nil {
		return sc
	}
	var ix *Index
	if s.boxes != nil {
		// NewIndex accepted this observer when the boxes were drawn.
		ix, _ = NewIndex(s.obs, 0)
	}
	return s.newScan(ix)
}

func (s *Surface) give(sc *surfaceScan) {
	s.mu.Lock()
	s.free = append(s.free, sc)
	s.mu.Unlock()
}
