// Package eo models §3.3, processing space-native data: imaging satellites
// produce multi-Gbps sensor data but can only downlink during ground-station
// contacts, so sensing time is downlink-bound. In-orbit pre-processing
// shrinks the data before downlink, buying sensing time and saving
// ground-link bandwidth; ISLs allow cooperative processing across
// satellites.
package eo

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/visibility"
)

// Mission describes one imaging satellite's data pipeline.
type Mission struct {
	// SensingRateGbps is the sensor's raw data rate while actively imaging
	// (the paper cites multi-Gbps imagery platforms).
	SensingRateGbps float64
	// DownlinkRateGbps is the usable satellite→ground rate during contact
	// (the planned networks offer ~10 Gbps down-links, only a fraction of
	// which sensing may claim without compromising network service).
	DownlinkRateGbps float64
	// StorageGb is onboard buffer capacity in gigabits.
	StorageGb float64
	// PreprocessFactor R ≥ 1: in-orbit processing keeps 1/R of the raw
	// volume (cloud filtering, tiling, change detection). R=1 means no
	// processing.
	PreprocessFactor float64
	// ProcessRateGbps is the onboard server's processing throughput; raw
	// data must flow through it when PreprocessFactor > 1.
	ProcessRateGbps float64
}

// Validate reports whether the mission parameters are usable.
func (m Mission) Validate() error {
	if m.SensingRateGbps <= 0 {
		return fmt.Errorf("eo: sensing rate must be positive, got %v", m.SensingRateGbps)
	}
	if m.DownlinkRateGbps <= 0 {
		return fmt.Errorf("eo: downlink rate must be positive, got %v", m.DownlinkRateGbps)
	}
	if m.StorageGb < 0 {
		return fmt.Errorf("eo: negative storage %v", m.StorageGb)
	}
	if m.PreprocessFactor < 1 {
		return fmt.Errorf("eo: preprocess factor %v must be >= 1", m.PreprocessFactor)
	}
	if m.PreprocessFactor > 1 && m.ProcessRateGbps <= 0 {
		return fmt.Errorf("eo: preprocessing requires a positive process rate")
	}
	return nil
}

// MaxSensingDutyCycle returns the steady-state fraction of time the sensor
// can run, given the fraction of time the satellite has ground contact.
// Balance: sensed × (1/R) ≤ downlink × contact, and sensed ≤ processed.
func (m Mission) MaxSensingDutyCycle(contactFraction float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	cf := math.Min(math.Max(contactFraction, 0), 1)
	duty := m.PreprocessFactor * m.DownlinkRateGbps * cf / m.SensingRateGbps
	if m.PreprocessFactor > 1 {
		duty = math.Min(duty, m.ProcessRateGbps/m.SensingRateGbps)
	}
	return math.Min(duty, 1), nil
}

// DownlinkSavingsFraction returns the fraction of ground-link bandwidth the
// preprocessing saves for a fixed amount of sensing (1 - 1/R).
func (m Mission) DownlinkSavingsFraction() float64 {
	return 1 - 1/m.PreprocessFactor
}

// ContactFraction computes the fraction of time a satellite on the given
// orbit sees at least one of the ground stations, sampled at stepSec over
// horizonSec. minElevationDeg is the ground-station dish mask.
func ContactFraction(el orbit.Elements, grounds []geo.LatLon, minElevationDeg, horizonSec, stepSec float64) (float64, error) {
	if stepSec <= 0 || horizonSec <= 0 {
		return 0, fmt.Errorf("eo: positive horizon and step required")
	}
	prop, err := orbit.NewPropagator(el, orbit.Options{})
	if err != nil {
		return 0, err
	}
	ecef := make([]geo.Vec3, len(grounds))
	for i, g := range grounds {
		ecef[i] = g.ECEF()
	}
	maxChord := visibility.MaxSlantRangeKm(el.AltitudeKm, minElevationDeg)
	maxChord2 := maxChord * maxChord
	inContact := 0
	total := 0
	for t := 0.0; t < horizonSec; t += stepSec {
		total++
		pos := prop.ECEFAt(t)
		for _, g := range ecef {
			rel := pos.Sub(g)
			if rel.Dot(rel) <= maxChord2 {
				inContact++
				break
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(inContact) / float64(total), nil
}

// PassResult summarises a store-and-forward simulation.
type PassResult struct {
	// SensedGb is the raw data sensed over the horizon.
	SensedGb float64
	// DownlinkedGb is the volume actually delivered to the ground.
	DownlinkedGb float64
	// MissedGb is the raw-data volume the sensor could NOT capture because
	// the buffer was full — lost sensing opportunity, not lost bytes.
	MissedGb float64
	// PeakBacklogGb is the largest buffered volume.
	PeakBacklogGb float64
	// SensingSec is the achieved sensing time.
	SensingSec float64
}

// SimulateStoreAndForward runs the mission over explicit contact windows in
// fixed steps of stepSec: the sensor runs whenever the buffer has room,
// data is preprocessed at ingest, and the buffer drains during contacts.
// contacts are [start,end) pairs in seconds; horizonSec bounds the run.
func SimulateStoreAndForward(m Mission, contacts [][2]float64, horizonSec, stepSec float64) (PassResult, error) {
	if err := m.Validate(); err != nil {
		return PassResult{}, err
	}
	if horizonSec <= 0 || stepSec <= 0 {
		return PassResult{}, fmt.Errorf("eo: positive horizon and step required")
	}
	for _, c := range contacts {
		if c[1] < c[0] {
			return PassResult{}, fmt.Errorf("eo: contact window [%v,%v) inverted", c[0], c[1])
		}
	}
	inContact := func(t float64) bool {
		for _, c := range contacts {
			if t >= c[0] && t < c[1] {
				return true
			}
		}
		return false
	}

	var res PassResult
	backlog := 0.0 // gigabits buffered (post-preprocessing)

	// Effective sensing intake after preprocessing, bounded by the
	// processing rate.
	intakeRate := m.SensingRateGbps / m.PreprocessFactor
	senseRate := m.SensingRateGbps
	if m.PreprocessFactor > 1 && m.ProcessRateGbps < m.SensingRateGbps {
		// Processing-bound: the sensor throttles to what the server chews.
		senseRate = m.ProcessRateGbps
		intakeRate = m.ProcessRateGbps / m.PreprocessFactor
	}

	for t := 0.0; t < horizonSec; t += stepSec {
		// Sense if the buffer has room for this step's intake.
		intake := intakeRate * stepSec
		if m.StorageGb == 0 || backlog+intake <= m.StorageGb {
			backlog += intake
			res.SensedGb += senseRate * stepSec
			res.SensingSec += stepSec
		} else if room := m.StorageGb - backlog; room > 1e-12 {
			// Partial step of sensing until full.
			frac := room / intake
			backlog = m.StorageGb
			res.SensedGb += senseRate * stepSec * frac
			res.SensingSec += stepSec * frac
			res.MissedGb += senseRate * stepSec * (1 - frac)
		} else {
			res.MissedGb += senseRate * stepSec
		}
		// Drain during contact.
		if inContact(t) {
			drain := math.Min(backlog, m.DownlinkRateGbps*stepSec)
			backlog -= drain
			res.DownlinkedGb += drain
		}
		if backlog > res.PeakBacklogGb {
			res.PeakBacklogGb = backlog
		}
	}
	return res, nil
}

// CooperativeSpeedup returns the completion-time speedup of spreading a
// processing job across k satellites over ISLs versus one satellite:
// Amdahl-style with a per-hop shuffle cost. jobGb is the input volume,
// islGbps the per-link bandwidth, perSatGbps the single-satellite
// processing rate.
func CooperativeSpeedup(jobGb float64, k int, perSatGbps, islGbps float64) (float64, error) {
	if jobGb <= 0 || perSatGbps <= 0 || islGbps <= 0 {
		return 0, fmt.Errorf("eo: positive job, processing and ISL rates required")
	}
	if k <= 0 {
		return 0, fmt.Errorf("eo: k must be positive, got %d", k)
	}
	single := jobGb / perSatGbps
	// Distribute (k-1)/k of the input over ISLs, process in parallel,
	// gather negligible results (post-processing output is small).
	distribute := jobGb * float64(k-1) / float64(k) / islGbps
	parallel := jobGb / (float64(k) * perSatGbps)
	coop := distribute + parallel
	return single / coop, nil
}
