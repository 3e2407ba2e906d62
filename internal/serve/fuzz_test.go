package serve

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// fullScanLeastLoaded is least-loaded's pick without the early exit: every
// candidate's ETA is computed and the first strict minimum wins.
func fullScanLeastLoaded(nowSec float64, cands []Candidate, freeAt []float64) int {
	idx, best := -1, math.Inf(1)
	for i := range cands {
		eta := math.Max(freeAt[cands[i].SatID], nowSec) + cands[i].OneWayMs/1000
		if eta < best {
			best = eta
			idx = i
		}
	}
	return idx
}

// FuzzLeastLoadedPick: the early-exit Pick returns the full scan's index on
// candidate lists in the engine's (OneWayMs, SatID) order. Each candidate
// is 3 bytes: a coarse one-way delay (so delays tie), then how its free-at
// time sits against nowSec (never claimed, below, at or above it) and by
// how much — down to a few ULPs of nowSec, where rounding decides.
func FuzzLeastLoadedPick(f *testing.F) {
	f.Add(0.0, []byte{0, 0, 0})
	f.Add(100.0, []byte{8, 1, 3, 8, 2, 0, 16, 3, 9, 16, 0, 0})
	f.Add(1e6, []byte{4, 5, 200, 4, 6, 1, 4, 7, 255, 5, 1, 2, 9, 3, 40})
	f.Add(31.25, []byte{1, 3, 100, 2, 7, 100, 2, 4, 255, 3, 11, 50})
	f.Fuzz(func(t *testing.T, nowSec float64, data []byte) {
		if math.IsNaN(nowSec) || math.IsInf(nowSec, 0) {
			t.Skip()
		}
		if nowSec = math.Abs(nowSec); nowSec > 1e6 {
			nowSec = math.Mod(nowSec, 1e6)
		}
		ulp := math.Nextafter(math.Max(nowSec, 1), math.Inf(1)) - math.Max(nowSec, 1)
		var cands []Candidate
		freeAt := make([]float64, len(data)/3)
		for i := 0; i+3 <= len(data); i += 3 {
			c := Candidate{SatID: i / 3, OneWayMs: 2 + float64(data[i]%32)*0.25}
			off := float64(data[i+2])
			if data[i+1]&4 != 0 {
				off *= ulp
			} else {
				off *= 1e-4
			}
			switch data[i+1] & 3 {
			case 1:
				freeAt[c.SatID] = nowSec - off
			case 2:
				freeAt[c.SatID] = nowSec
			case 3:
				freeAt[c.SatID] = nowSec + off
			}
			cands = append(cands, c)
		}
		if len(cands) == 0 {
			return
		}
		slices.SortFunc(cands, func(a, b Candidate) int {
			if c := cmp.Compare(a.OneWayMs, b.OneWayMs); c != 0 {
				return c
			}
			return cmp.Compare(a.SatID, b.SatID)
		})
		if got, want := LeastLoaded().Pick(nowSec, -1, cands, freeAt), fullScanLeastLoaded(nowSec, cands, freeAt); got != want {
			t.Fatalf("nowSec %v: early exit picked %d, full scan %d, cands %+v, free at %v", nowSec, got, want, cands, freeAt)
		}
	})
}

// FuzzReadTrace feeds the JSONL trace reader arbitrary bytes: it must
// never panic, every request it accepts must pass Validate (so Feed's
// heap-order contract holds for replayed traces), and writing the accepted
// requests back out must read as the same trace.
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteTrace(&seed, testTrace(f, 5, 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2]) // truncated mid-record
	f.Add([]byte("{\"t_sec\":1,\"site\":0,\"service_ms\":5}\n\n{\"t_sec\":2,\"site\":1,\"service_ms\":6}"))
	f.Add([]byte("{\"t_sec\":NaN,\"site\":0,\"service_ms\":5}\n"))
	f.Add([]byte("{\"t_sec\":1,\"site\":0,\"service_ms\":Infinity}\n"))
	f.Add([]byte("{\"t_sec\":1e999,\"site\":0,\"service_ms\":\"NaN\"}\n"))
	f.Add([]byte("{\"t_sec\":-0,\"site\":9223372036854775808,\"service_ms\":5e-324}\n"))
	f.Add([]byte("{\"t_sec\":1,\"site\":0,\"service_ms\":5," + strings.Repeat(" ", 1<<20) + "}\n")) // over the line limit
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range reqs {
			if err := r.Validate(); err != nil {
				t.Fatalf("accepted request %d %+v fails Validate: %v", i, r, err)
			}
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, reqs); err != nil {
			t.Fatalf("WriteTrace of an accepted trace: %v", err)
		}
		back, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-read of a written trace: %v", err)
		}
		if len(back) != len(reqs) {
			t.Fatalf("round trip changed the length: %d vs %d", len(back), len(reqs))
		}
		for i := range back {
			if back[i] != reqs[i] {
				t.Fatalf("round trip changed request %d: %+v vs %+v", i, back[i], reqs[i])
			}
		}
	})
}

// sampleTimes are the times FuzzSampleOrder's third mode draws from: both
// zeros, subnormals, the largest finite values and the infinities.
var sampleTimes = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -1e-310,
	math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64, 1e300, math.Inf(1), math.Inf(-1)}

// FuzzSampleOrder: sortRecs leaves a slice's merge records exactly where a
// comparison sort by byTimeOwner puts them. There are n records, n from
// count so that lengths cross the insertion cutoff (48) and the bucket
// widths. Record i takes byte data[i%len(data)] as its time's mode — all at
// base, base plus a coarse step of spread (many ties), a value from
// sampleTimes, or its own point on [base, base+spread] — and a distinct
// owner from an odd multiplier, so owners arrive in any order and either
// sign.
func FuzzSampleOrder(f *testing.F) {
	f.Add(1500.0, 60.0, uint16(8100), uint32(0x9e3779b9), []byte{3, 7, 11, 1, 5})
	f.Add(0.0, 0.0, uint16(300), uint32(1), []byte{0})
	f.Add(7.25, 1.0, uint16(47), uint32(3), []byte{1, 5, 9})
	f.Add(7.25, 1.0, uint16(49), uint32(5), []byte{1, 5, 9, 13, 3})
	f.Add(-3.0, 6.0, uint16(2000), uint32(0xdeadbeef), []byte{2, 6, 10, 14, 18, 22, 26, 30, 34, 38, 42, 46, 3})
	f.Add(5e-324, 1e-310, uint16(600), uint32(77), []byte{3, 1, 0})
	f.Add(1e300, 1e308, uint16(5000), uint32(12345), []byte{3, 1, 2, 6})
	f.Fuzz(func(t *testing.T, base, spread float64, count uint16, mul uint32, data []byte) {
		if math.IsNaN(base) || math.IsNaN(spread) || len(data) == 0 {
			t.Skip()
		}
		n := int(count) % 6000
		recs := make([]mergeRec, n)
		for i := range recs {
			b := data[i%len(data)]
			var tm float64
			switch b & 3 {
			case 0:
				tm = base
			case 1:
				tm = base + spread*float64(b>>2)/63
			case 2:
				tm = sampleTimes[int(b>>2)%len(sampleTimes)]
			case 3:
				tm = base + spread*float64(i)/float64(n)
			}
			if math.IsNaN(tm) { // Inf - Inf, 0 * Inf: the sort's contract excludes NaN
				tm = math.Copysign(0, -1)
			}
			recs[i] = mergeRec{t: tm, owner: int32(uint32(i)*(mul|1) + mul>>7), v: float64(i)}
		}
		want := slices.Clone(recs)
		slices.SortFunc(want, byTimeOwner)
		sortRecs(recs, false)
		for i := range recs {
			g, w := recs[i], want[i]
			if math.Float64bits(g.t) != math.Float64bits(w.t) || g.owner != w.owner || g.v != w.v {
				t.Fatalf("n=%d: position %d holds %+v, comparison sort %+v", n, i, g, w)
			}
		}
	})
}

// FuzzGenerateMatchesOracle: the generator's trace equals the direct
// thinning oracle's, which evaluates the diurnal curve at every draw, for
// any seed, amplitude, peak hour, rate, horizon and site count. The inputs
// are folded into range, and rate times horizon is held to 20,000 expected
// requests so each case stays quick.
func FuzzGenerateMatchesOracle(f *testing.F) {
	f.Add(int64(1), 0.6, 20.0, 350.0, 50.0, uint8(39))
	f.Add(int64(7), 0.95, 3.5, 0.05, 216000.0, uint8(12))
	f.Add(int64(-3), 0.0, 0.0, 1.0, 90000.0, uint8(1))
	f.Add(int64(42), 0.3, 23.99, 0.001, 1e7, uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, amp, peakHour, rate, horizon float64, nsites uint8) {
		for _, v := range []float64{amp, peakHour, rate, horizon} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		amp = math.Mod(math.Abs(amp), 1)
		peakHour = math.Mod(math.Abs(peakHour), 24)
		rate = math.Max(math.Mod(math.Abs(rate), 1000), 1e-6)
		horizon = math.Max(math.Mod(math.Abs(horizon), 1e7), 1)
		if rate*horizon > 20_000 {
			horizon = 20_000 / rate
		}
		sites := SitesFromCities(1 + int(nsites)%40)
		w := Workload{Seed: seed, RatePerSec: rate, ServiceMedianMs: 20, DiurnalAmplitude: amp, PeakLocalHour: peakHour}
		got, err := Generate(sites, w, horizon)
		if err != nil {
			t.Fatal(err)
		}
		sameTrace(t, fmt.Sprintf("%+v horizon=%g sites=%d", w, horizon, len(sites)), got, generateSorted(sites, w, horizon))
	})
}
