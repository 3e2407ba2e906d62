package netgraph_test

import (
	"testing"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/isl"
	"repro/internal/meetup"
	"repro/internal/netgraph"
	"repro/internal/trace"
)

// TestTransferStopsAtRelay: pricing the hand-offs of one 2 h Fig 6 group
// (the study's first group, MinMax and Sticky at 2 s steps on Starlink), a
// transfer the ground relay wins costs at most a few node expansions — the
// ISL search stops at the relay price instead of finishing (≈ 650
// expansions) and then losing to it.
func TestTransferStopsAtRelay(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation simulation")
	}
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := trace.Groups(trace.GroupConfig{Seed: 42, Groups: 1, MinUsers: 3, MaxUsers: 5, SpreadKm: 600, MaxAbsLatDeg: 52})
	if err != nil {
		t.Fatal(err)
	}
	grid := isl.NewPlusGrid(c)
	p, err := meetup.NewPlanner(c, grid, groups[0].Users, meetup.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := ephem.New(c, ephem.Config{})
	sats := c.Size()
	var relayWon, islWon, relayExp, islExp int
	for _, pol := range []meetup.Policy{meetup.MinMax, meetup.Sticky} {
		res, err := p.Simulate(eng, pol, 0, 7200, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range res.Handoffs {
			snap := eng.SnapshotAt(h.TimeSec)
			ctx, before := netgraph.PeekExpanded(sats)
			ms, err := p.TransferLatencyMs(snap, h.From, h.To)
			if err != nil {
				t.Fatal(err)
			}
			after, expanded := netgraph.PeekExpanded(sats)
			if ms != h.TransferMs {
				t.Fatalf("t=%v: repriced transfer %v ms, the session paid %v", h.TimeSec, ms, h.TransferMs)
			}
			if after != ctx {
				continue // a pool miss: this sample is unreadable
			}
			path, err := netgraph.ISLShortest(grid, snap, h.From, h.To)
			if err == nil && ms == path.OneWayMs {
				islWon++
				islExp += int(expanded - before)
			} else {
				relayWon++
				relayExp += int(expanded - before)
			}
		}
	}
	if relayWon < 20 || islWon == 0 {
		t.Fatalf("read %d relay-won and %d ISL-won transfers, want ≥ 20 and ≥ 1", relayWon, islWon)
	}
	mean := float64(relayExp) / float64(relayWon)
	t.Logf("mean expansions: %.1f over %d relay-won transfers, %.1f over %d ISL-won",
		mean, relayWon, float64(islExp)/float64(islWon), islWon)
	if mean > 8 {
		t.Fatalf("mean expansions per relay-won transfer = %.1f, want ≤ 8: does the ISL search still run past the relay price?", mean)
	}
}
