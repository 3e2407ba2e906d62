package fleet

import (
	"repro/internal/obs"
	"repro/internal/stats"
)

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

	// Cumulative decision counters: the sums of every Step's EpochReport
	// (Epochs counts the Steps, a failed one included).
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

// publish is the one tally of a Step's decisions: it adds each count of
// rep to the lifetime Stats and to its fleet_* counter, sets the gauges and
// times the epoch. Step calls it once, on its error return too, so the
// counters, Stats and the reports a caller sums never disagree.
func (o *Orchestrator) publish(rep EpochReport) {
	m, st := o.m, &o.life
	for _, c := range [...]struct {
		n     int
		total *uint64
		ctr   *obs.Counter // nil: the count has no series of its own
	}{
		{rep.Placements, &st.Placements, m.placeInitial},
		{rep.Handoffs, &st.Handoffs, m.placeHandoff},
		{rep.Rejections, &st.Rejections, m.rejections},
		{rep.Departures, &st.Departures, nil},
		{1, &st.Epochs, m.epochs},
		{rep.Expiring, &st.Expiring, nil},
		{rep.Evacuations, &st.Evacuations, m.evacOK},
		{rep.EvacuationsDeferred, &st.EvacuationsDeferred, m.evacDeferred},
		{rep.MigrationFailures, &st.MigrationFailures, m.faultMig},
		{rep.BackoffDeferrals, &st.BackoffDeferrals, m.retryDeferred},
		{rep.ISLDegradations, &st.ISLDegradations, m.faultISL},
		{rep.SatFailures, &st.SatFailures, m.faultSatFail},
		{rep.SatRecoveries, &st.SatRecoveries, m.faultSatRec},
	} {
		*c.total += uint64(c.n)
		if c.ctr != nil {
			c.ctr.Add(uint64(c.n))
		}
	}
	m.sessions.Set(float64(rep.Sessions))
	m.assigned.Set(float64(rep.Assigned))
	m.evacPending.Set(float64(o.nEvacPending))
	m.epochSec.Observe(rep.WallSec)
}

// Stats snapshots the orchestrator: the lifetime counts publish keeps, and
// the instantaneous fields read now. Safe to call between Steps.
func (o *Orchestrator) Stats() Stats {
	st := o.life
	st.TSec, st.Sessions, st.Assigned, st.Satellites = o.now, o.tab.Len(), o.nAssigned, o.c.Size()
	st.EvacuationsPending = o.nEvacPending
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
