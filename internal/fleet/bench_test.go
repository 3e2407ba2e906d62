package fleet

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/trace"
)

// benchAnchors are mid-latitude population centres the benchmark workload
// clusters around — the same city-weighted shape fleetsim uses.
var benchAnchors = []geo.LatLon{
	{LatDeg: 9.1, LonDeg: 7.5},     // Abuja
	{LatDeg: 51.5, LonDeg: -0.1},   // London
	{LatDeg: 35.7, LonDeg: 139.7},  // Tokyo
	{LatDeg: -23.5, LonDeg: -46.6}, // São Paulo
	{LatDeg: 40.7, LonDeg: -74.0},  // New York
	{LatDeg: 28.6, LonDeg: 77.2},   // Delhi
	{LatDeg: -33.9, LonDeg: 151.2}, // Sydney
	{LatDeg: 37.8, LonDeg: -122.4}, // San Francisco
}

// benchWorkload builds n two-user sessions scattered around the anchors.
// Demand is 0.02 cores per session so a million sessions fit inside the
// constellation's mid-latitude capacity band (~30% occupancy at 1M).
func benchWorkload(b testing.TB, n int) []*Session {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	out := make([]*Session, 0, n)
	for i := 0; i < n; i++ {
		a := benchAnchors[rng.Intn(len(benchAnchors))]
		users := []geo.LatLon{
			geo.Destination(a, rng.Float64()*360, 20+rng.Float64()*150),
			geo.Destination(a, rng.Float64()*360, 20+rng.Float64()*150),
		}
		s, err := NewSession(uint64(i+1), users)
		if err != nil {
			b.Fatal(err)
		}
		s.CoresDemand = 0.02
		s.MemoryGB = 0.05
		out = append(out, s)
	}
	return out
}

// BenchmarkFleetScale measures the steady-state epoch cost of the streaming
// planner over the full Starlink Phase I constellation at 100k, 300k, and
// 1M concurrent sessions, recorded in BENCH_fleet.json. Two counts explain
// that cost and repeat exactly on any host: movers/epoch, the work items
// detection hands admission, and spill-shells/epoch, the shells a proposal
// skipped that admission scanned for the load spill — what a full 550 km
// shell costs the larger populations. CI gates the counts against the
// committed record; the timings (us-per-session-epoch) are recorded, not
// gated, since they describe whichever host ran them.
func BenchmarkFleetScale(b *testing.B) {
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100_000, 300_000, 1_000_000} {
		b.Run(fmt.Sprintf("sessions_%d", n), func(b *testing.B) {
			o, err := New(c, nil, Config{
				StepSec:          60,
				ExpectedSessions: n,
				Registry:         obs.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := o.SubmitBatch(benchWorkload(b, n)); err != nil {
				b.Fatal(err)
			}
			if err := o.Start(0); err != nil {
				b.Fatal(err)
			}
			// Warm epoch: the one-off initial placement of the whole
			// population is not the steady-state cost being measured.
			if _, err := o.Step(); err != nil {
				b.Fatal(err)
			}
			spilled, movers := o.m.spillShells.Value(), 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Step(); err != nil {
					b.Fatal(err)
				}
				movers += len(o.pl.work)
			}
			b.StopTimer()
			perSession := b.Elapsed().Seconds() * 1e6 / float64(b.N) / float64(n)
			b.ReportMetric(perSession, "us-per-session-epoch")
			b.ReportMetric(float64(n), "sessions")
			b.ReportMetric(float64(movers)/float64(b.N), "movers/epoch")
			b.ReportMetric(float64(o.m.spillShells.Value()-spilled)/float64(b.N), "spill-shells/epoch")
		})
	}
}

// BenchmarkScanShell times the planner's candidate kernel, scanShell, alone:
// Starlink at t = 0 and 2,000 groups shaped like the fleet-steady workload
// (2–5 users, 300 km spread, |lat| ≤ 55°), every shell of each session
// scanned. Beside ns/scan it reports two counts that repeat exactly on any
// host — tested/scan, the CSR positions inside a session's box of one shell,
// and kept/scan, the satellites every user sees — which CI gates against
// the committed BENCH_fleet.json; ns/scan is recorded, not gated.
func BenchmarkScanShell(b *testing.B) {
	o, err := New(starlink(b), nil, Config{Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	groups, err := trace.Groups(trace.GroupConfig{Seed: 5, Groups: 2000, MinUsers: 2, MaxUsers: 5, SpreadKm: 300, MaxAbsLatDeg: 55})
	if err != nil {
		b.Fatal(err)
	}
	if err := o.Start(0); err != nil {
		b.Fatal(err)
	}
	sessions := make([]*Session, len(groups))
	tested := 0
	for i, g := range groups {
		if sessions[i], err = NewSession(uint64(i+1), g.Users); err != nil {
			b.Fatal(err)
		}
		sessions[i].win = o.idx.Window(sessions[i].Users)
		forEachBoxed(o.idx, sessions[i], o.shellOrder, func(int32) { tested++ })
	}
	var arena []candidate
	kept := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept = 0
		for _, s := range sessions {
			for _, si := range o.shellOrder {
				arena = o.scanShell(arena[:0], s, si)
				kept += len(arena)
			}
		}
	}
	b.StopTimer()
	scans := float64(len(sessions) * len(o.shellOrder))
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/scans, "ns/scan")
	b.ReportMetric(float64(tested)/scans, "tested/scan")
	b.ReportMetric(float64(kept)/scans, "kept/scan")
}
