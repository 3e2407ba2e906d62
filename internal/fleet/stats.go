package fleet

import "repro/internal/stats"

// totals accumulates the orchestrator's lifetime decision counters. They
// duplicate the obs counter families on purpose: Stats reads these plain
// fields instead of scraping metric names off a registry, so the snapshot
// stays stable even when the metric surface evolves.
type totals struct {
	placements, handoffs, rejections, departures uint64
	epochs                                       uint64
	expiring                                     uint64
	evacuations, evacuationsDeferred             uint64
	migrationFailures, backoffDeferrals          uint64
	islDegradations                              uint64
	satFailures, satRecoveries                   uint64
}

func (t *totals) fold(rep EpochReport) {
	t.placements += uint64(rep.Placements)
	t.handoffs += uint64(rep.Handoffs)
	t.rejections += uint64(rep.Rejections)
	t.departures += uint64(rep.Departures)
	t.epochs++
	t.expiring += uint64(rep.Expiring)
	t.evacuations += uint64(rep.Evacuations)
	t.evacuationsDeferred += uint64(rep.EvacuationsDeferred)
	t.migrationFailures += uint64(rep.MigrationFailures)
	t.backoffDeferrals += uint64(rep.BackoffDeferrals)
	t.islDegradations += uint64(rep.ISLDegradations)
	t.satFailures += uint64(rep.SatFailures)
	t.satRecoveries += uint64(rep.SatRecoveries)
}

// QuantileSummary is a compact distribution snapshot inside Stats.
type QuantileSummary struct {
	// Count is how many observations the distribution has absorbed.
	Count uint64
	// Mean, P50, P90, P99, and Max summarise it. All zero when Count is 0.
	Mean, P50, P90, P99, Max float64
}

// Stats is the stable fleet snapshot: everything a report or dashboard
// needs from a running orchestrator in one read, without scraping obs
// metric families by name. Cumulative fields cover the orchestrator's
// whole lifetime; instantaneous fields describe the state after the last
// Step.
type Stats struct {
	// TSec is the current simulated time (the next epoch's timestamp).
	TSec float64

	// Sessions and Assigned are the live population and how many of them
	// hold a satellite-server assignment.
	Sessions, Assigned int

	// Satellites is the constellation size; LoadedSats counts satellites
	// carrying at least one session.
	Satellites, LoadedSats int

	// Cumulative decision counters.
	Placements, Handoffs, Rejections, Departures uint64
	Epochs, Expiring                             uint64

	// Fault-handling counters (all zero without an injector), plus the
	// instantaneous failed-satellite and pending-evacuation counts.
	Evacuations, EvacuationsDeferred    uint64
	MigrationFailures, BackoffDeferrals uint64
	ISLDegradations                     uint64
	SatFailures, SatRecoveries          uint64
	DownSats, EvacuationsPending        int

	// MeanUtilization, UtilizationP50/P90, and UtilizationMax summarise
	// the per-satellite core utilisation distribution.
	MeanUtilization                                float64
	UtilizationP50, UtilizationP90, UtilizationMax float64

	// ReplanMs is the per-session proposal/replan latency distribution in
	// wall-clock milliseconds (non-deterministic); TransferMs is the
	// hand-off one-way state-transfer latency distribution in simulated
	// milliseconds (deterministic).
	ReplanMs, TransferMs QuantileSummary
}

// Stats snapshots the orchestrator. Safe to call between Steps.
func (o *Orchestrator) Stats() Stats {
	st := Stats{
		TSec:                o.now,
		Sessions:            o.tab.Len(),
		Assigned:            o.nAssigned,
		Satellites:          o.c.Size(),
		Placements:          o.tot.placements,
		Handoffs:            o.tot.handoffs,
		Rejections:          o.tot.rejections,
		Departures:          o.tot.departures,
		Epochs:              o.tot.epochs,
		Expiring:            o.tot.expiring,
		Evacuations:         o.tot.evacuations,
		EvacuationsDeferred: o.tot.evacuationsDeferred,
		MigrationFailures:   o.tot.migrationFailures,
		BackoffDeferrals:    o.tot.backoffDeferrals,
		ISLDegradations:     o.tot.islDegradations,
		SatFailures:         o.tot.satFailures,
		SatRecoveries:       o.tot.satRecoveries,
		EvacuationsPending:  o.nEvacPending,
	}
	if o.cfg.Faults != nil {
		st.DownSats = o.cfg.Faults.DownCount()
	}

	util := o.Utilization()
	sum := 0.0
	for _, u := range util {
		sum += u
		if u > 0 {
			st.LoadedSats++
		}
	}
	if len(util) > 0 {
		cdf := stats.NewCDF(util...)
		st.MeanUtilization = sum / float64(len(util))
		st.UtilizationP50 = cdf.Quantile(0.50)
		st.UtilizationP90 = cdf.Quantile(0.90)
		st.UtilizationMax = cdf.Max()
	}
	st.ReplanMs = quantileSummary(o.m.replanQ)
	st.TransferMs = quantileSummary(o.m.transferQ)
	return st
}

// quantileSummary reads a QuantileSummary off a streaming sketch.
func quantileSummary(q interface {
	Count() uint64
	Sum() float64
	Max() float64
	Quantiles(...float64) []float64
}) QuantileSummary {
	n := q.Count()
	if n == 0 {
		return QuantileSummary{}
	}
	qs := q.Quantiles(0.50, 0.90, 0.99)
	return QuantileSummary{
		Count: n,
		Mean:  q.Sum() / float64(n),
		P50:   qs[0],
		P90:   qs[1],
		P99:   qs[2],
		Max:   q.Max(),
	}
}
