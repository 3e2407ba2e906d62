package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/visibility"
)

// TestCandidatesMatchNetgraphOracle pins the engine's candidate lists — read
// straight off the ephemeris frames — to the legacy oracle's, which reads
// them off a ring of frozen netgraph snapshots: at every refresh over one
// orbital period, every site's list must agree on satellite, one-way
// latency bits and lifetime bits, and on the "visible but all down" flag.
// The site counts straddle netgraph's indexed freeze (32 grounds), so both
// of its scans stand in as the oracle.
//
// Every (preset, site count) cell runs one complementary pair of rows over
// (lookahead, refresh, chaos), so it sees both values of each; the three
// pairs are laid out as a Latin square over the cells, so every preset and
// every site count runs all three, and every value pair of any two of the
// factors is run somewhere. The full cross product costs four times as
// long. The engine's ring is lookaheadEpochs deep; a lookahead-1 row
// rebuilds it one refresh deep in place, so the oracle also checks lives
// that the ring caps at one refresh.
func TestCandidatesMatchNetgraphOracle(t *testing.T) {
	type row struct {
		lookahead int
		refresh   float64
		chaos     bool
	}
	pairs := [3][2]row{
		{{1, 60, false}, {3, 7.5, true}},
		{{1, 7.5, true}, {3, 60, false}},
		{{1, 60, true}, {3, 7.5, false}},
	}
	presets := []struct {
		name  string
		build func(constellation.Config) (*constellation.Constellation, error)
	}{
		{"starlink", constellation.StarlinkPhase1},
		{"kuiper", constellation.Kuiper},
		{"telesat", constellation.Telesat},
	}
	for pi, pr := range presets {
		c, err := pr.build(constellation.Config{})
		if err != nil {
			t.Fatal(err)
		}
		period := 0.0
		for _, s := range c.Satellites {
			period = max(period, s.Prop.Elements().PeriodSec())
		}
		eph := ephem.New(c, ephem.Config{Registry: obs.NewRegistry()})
		for si, nSites := range []int{2, 40, 200} {
			for _, r := range pairs[(pi+si)%3] {
				name := fmt.Sprintf("%s/sites=%d/lookahead=%d/refresh=%g/chaos=%v", pr.name, nSites, r.lookahead, r.refresh, r.chaos)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := func() Config {
						cfg := Config{Sites: SitesFromCities(nSites), Policy: Nearest(),
							RefreshSec: r.refresh, Ephem: eph}
						if r.chaos {
							// Failures without recovery, an eighth of the period apart
							// per satellite: the up satellites thin out over the orbit,
							// until sites see only failed ones.
							inj, err := faults.New(c.Size(), faults.Config{Seed: 5, SatMTBFHours: period / 8 / 3600, SatMTTRSec: -1})
							if err != nil {
								t.Fatal(err)
							}
							cfg.Faults = inj
						}
						return cfg
					}
					e, err := NewEngine(c, cfg())
					if err != nil {
						t.Fatal(err)
					}
					if r.lookahead != lookaheadEpochs {
						e.ring = visibility.NewRing(visibility.NewObserver(c), eph, 0, r.refresh, r.lookahead)
						e.refresh(0)
					}
					l, err := newLegacyEngine(c, cfg(), r.lookahead)
					if err != nil {
						t.Fatal(err)
					}
					refreshes := int(math.Ceil(period / r.refresh))
					if raceEnabled || testing.Short() {
						refreshes = min(refreshes, 8)
					}
					downOnly, cands := 0, 0
					for n := 0; ; n++ {
						d, k := checkSameCandidates(t, e, l, n)
						downOnly, cands = downOnly+d, cands+k
						if n == refreshes {
							break
						}
						ts := float64(n+1) * r.refresh
						e.ring.Advance(ts)
						e.refresh(ts)
						l.refresh(ts)
					}
					if cands == 0 || r.chaos && downOnly == 0 && refreshes > 8 {
						t.Errorf("%d candidates, %d sites with only failed satellites in view", cands, downOnly)
					}
				})
			}
		}
	}
}

// checkSameCandidates fails unless the engine's and the oracle's per-site
// candidate lists agree bit for bit at refresh n, and returns how many sites
// see only failed satellites and how many candidates there are.
func checkSameCandidates(t *testing.T, e *Engine, l *legacyEngine, n int) (downOnly, cands int) {
	t.Helper()
	for si := range e.cands {
		got, want := e.cands[si], l.cands[si]
		if e.downOnly[si] != l.downOnly[si] {
			t.Fatalf("refresh %d site %d: downOnly %v, oracle %v", n, si, e.downOnly[si], l.downOnly[si])
		}
		if e.downOnly[si] {
			downOnly++
		}
		cands += len(got)
		if len(got) != len(want) {
			t.Fatalf("refresh %d site %d: %d candidates, oracle %d", n, si, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.SatID != w.SatID || math.Float64bits(g.OneWayMs) != math.Float64bits(w.OneWayMs) ||
				math.Float64bits(g.LifeSec) != math.Float64bits(w.LifeSec) {
				t.Fatalf("refresh %d site %d candidate %d: %+v, oracle %+v", n, si, i, g, w)
			}
		}
	}
	return downOnly, cands
}
