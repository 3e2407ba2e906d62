package experiments

import (
	"fmt"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/meetup"
	"repro/internal/netgraph"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/visibility"
)

// StickyAblationRow is one configuration's outcome.
type StickyAblationRow struct {
	LatencyBand float64
	PoolSize    int
	// MedianHoldSec is the median time between hand-offs.
	MedianHoldSec float64
	// Handoffs counts total hand-offs across groups.
	Handoffs int
	// MeanRTTMs is the average group RTT paid.
	MeanRTTMs float64
}

// StickyAblation sweeps the Sticky knobs (latency band, pool size) the
// paper fixes at 10%/5, exposing the stationarity-vs-latency trade-off.
func StickyAblation(bands []float64, pools []int, base Fig67Config) ([]StickyAblationRow, error) {
	if len(bands) == 0 {
		bands = []float64{0.05, 0.10, 0.25, 0.50}
	}
	if len(pools) == 0 {
		pools = []int{1, 3, 5, 10}
	}
	var out []StickyAblationRow
	for _, band := range bands {
		for _, pool := range pools {
			cfg := base
			cfg.Meetup = meetup.Config{LatencyBand: band, PoolSize: pool}
			res, err := Fig67(cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: ablation band=%v pool=%d: %w", band, pool, err)
			}
			row := StickyAblationRow{
				LatencyBand: band,
				PoolSize:    pool,
				Handoffs:    res.HandoffsSticky,
				MeanRTTMs:   res.MeanRTTSticky,
			}
			if res.IntervalsSticky.N() > 0 {
				row.MedianHoldSec = res.IntervalsSticky.Median()
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// TransferAblationResult compares state-transfer latency over the +grid ISL
// path versus the (unrealisable) direct line-of-sight bound, for successor
// pairs drawn from real hand-offs.
type TransferAblationResult struct {
	ISL, LineOfSight *stats.CDF
	// MeanInflation is mean(ISL / LoS) over pairs.
	MeanInflation float64
}

// TransferAblation measures how much the +grid topology inflates transfer
// latency over the free-space bound (DESIGN.md ablation "ISL vs LoS").
func TransferAblation(cfg Fig67Config) (TransferAblationResult, error) {
	cfg = cfg.withDefaults()
	c, grid, planners, err := groupPlanners(cfg)
	if err != nil {
		return TransferAblationResult{}, err
	}
	eng := engineFor(c)
	outs, err := simulateSessions(eng, planners, []meetup.Policy{meetup.Sticky}, cfg.DurationSec, cfg.StepSec)
	if err != nil {
		return TransferAblationResult{}, err
	}
	res := TransferAblationResult{ISL: stats.NewCDF(), LineOfSight: stats.NewCDF()}
	sumInfl, nInfl := 0.0, 0
	for _, o := range outs {
		if o == nil {
			continue
		}
		for _, h := range o[0].Handoffs {
			snap := eng.SnapshotAt(h.TimeSec)
			islPath, err := netgraph.ISLShortest(grid, snap, h.From, h.To)
			if err != nil {
				continue // cross-shell pair: no ISL path exists
			}
			los := units.PropagationDelayMs(snap[h.From].Distance(snap[h.To]))
			res.ISL.Add(islPath.OneWayMs)
			res.LineOfSight.Add(los)
			if los > 0 {
				sumInfl += islPath.OneWayMs / los
				nInfl++
			}
		}
	}
	if nInfl > 0 {
		res.MeanInflation = sumInfl / float64(nInfl)
	}
	return res, nil
}

// MaskAblationRow is one elevation-mask configuration's coverage outcome.
type MaskAblationRow struct {
	MaskDeg float64
	// MeanReachable is the mean reachable-satellite count at the sample
	// latitudes.
	MeanReachable float64
	// WorstNearestRTTMs is the worst nearest-satellite RTT over samples.
	WorstNearestRTTMs float64
	// UncoveredSamples counts latitude/time samples with no satellite.
	UncoveredSamples int
}

// MaskAblation sweeps the minimum elevation mask (DESIGN.md ablation):
// lower masks widen coverage cones (more reachable satellites, longer
// slant paths), higher masks do the opposite.
func MaskAblation(masks []float64, latStep float64, samples int) ([]MaskAblationRow, error) {
	if len(masks) == 0 {
		masks = []float64{15, 25, 35, 45}
	}
	if latStep <= 0 {
		latStep = 5
	}
	if samples <= 0 {
		samples = 10
	}
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		return nil, err
	}
	var out []MaskAblationRow
	for _, mask := range masks {
		obs := visibility.NewObserverWithMask(c, mask)
		row := MaskAblationRow{MaskDeg: mask}
		total, count := 0, 0
		for s := 0; s < samples; s++ {
			snap := engineFor(c).SnapshotAt(float64(s) * 60)
			for lat := 0.0; lat <= 60; lat += latStep {
				g := geo.LatLon{LatDeg: lat}.ECEF()
				n := obs.CountReachable(g, snap)
				total += n
				count++
				if n == 0 {
					row.UncoveredSamples++
					continue
				}
				near, _, _ := obs.NearestFarthest(g, snap)
				if rtt := units.RTTMs(near); rtt > row.WorstNearestRTTMs {
					row.WorstNearestRTTMs = rtt
				}
			}
		}
		row.MeanReachable = float64(total) / float64(count)
		out = append(out, row)
	}
	return out, nil
}
