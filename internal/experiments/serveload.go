package experiments

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/serve"
)

// serveDrainSec is how far past the arrival horizon a serving study runs
// so tail requests complete.
const serveDrainSec = 30

// servePoints is the loop every request-serving study shares: one request
// trace per offered rate (w.RatePerSec is overwritten), replayed through a
// fresh engine per policy over the shared ephemeris, row called with each
// engine's result in (rate, policy) order.
func servePoints(c *constellation.Constellation, cfg serve.Config, policies []serve.Policy,
	w serve.Workload, rates []float64, horizonSec float64, row func(rate float64, r serve.Result)) error {
	cfg.Ephem = engineFor(c)
	for _, rate := range rates {
		w.RatePerSec = rate
		reqs, err := serve.Generate(cfg.Sites, w, horizonSec)
		if err != nil {
			return err
		}
		for _, p := range policies {
			cfg.Policy = p
			e, err := serve.NewEngine(c, cfg)
			if err != nil {
				return err
			}
			if err := e.Feed(reqs); err != nil {
				return err
			}
			if err := e.RunUntil(horizonSec + serveDrainSec); err != nil {
				return err
			}
			r := e.Result()
			if r.Offered == 0 {
				return fmt.Errorf("experiments: serve study offered no requests at rate %v", rate)
			}
			row(rate, r)
		}
	}
	return nil
}

// latencyQuantiles returns the p50 and p99 of a result's served requests
// (zero when nothing was served).
func latencyQuantiles(r serve.Result) (p50, p99 float64) {
	if r.LatencyMs.N() == 0 {
		return 0, 0
	}
	return r.LatencyMs.Median(), r.LatencyMs.Quantile(0.99)
}

// ServePolicyRow is one (routing policy, offered load) point of the
// constellation-wide request-serving study.
type ServePolicyRow struct {
	Policy       string
	RatePerSec   float64
	P50Ms, P99Ms float64
	// ShedPct is the fraction of offered requests rejected at admission.
	ShedPct float64
	// SatsUsed counts satellites that served at least one request.
	SatsUsed int
	// MeanUtilPct / MaxUtilPct summarise utilisation over the satellites
	// that served traffic.
	MeanUtilPct, MaxUtilPct float64
}

// serveStudySeed fixes the request trace for the policy study.
const serveStudySeed = 17

// ServePolicyStudy runs the constellation-wide serving layer at increasing
// offered load, comparing every built-in routing policy on the same
// city-weighted diurnal request trace: the latency / utilization / shedding
// trade the paper's serverless pitch rests on. Small satellite-servers
// (2 request cores) keep the saturation point inside the swept range.
func ServePolicyStudy(rates []float64) ([]ServePolicyRow, error) {
	set := ConstellationSet{Starlink: true}
	consts, err := set.build()
	if err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		rates = []float64{250, 1000, 4000}
	}
	server := compute.DefaultServerSpec()
	server.Cores = 2
	cfg := serve.Config{Sites: serve.SitesFromCities(12), Server: server, QueueCap: 16, RefreshSec: 30}
	w := serve.Workload{Seed: serveStudySeed, ServiceMedianMs: 20, DiurnalAmplitude: 0.6}

	var out []ServePolicyRow
	err = servePoints(consts[0], cfg, serve.Policies(), w, rates, 120, func(rate float64, r serve.Result) {
		row := ServePolicyRow{
			Policy:     r.Policy,
			RatePerSec: rate,
			ShedPct:    100 * float64(r.ShedTotal()) / float64(r.Offered),
			SatsUsed:   r.SatsUsed,
		}
		row.P50Ms, row.P99Ms = latencyQuantiles(r)
		sum, max := 0.0, 0.0
		for _, u := range r.Utilization {
			if u <= 0 {
				continue
			}
			sum += u
			if u > max {
				max = u
			}
		}
		if r.SatsUsed > 0 {
			row.MeanUtilPct = 100 * sum / float64(r.SatsUsed)
		}
		row.MaxUtilPct = 100 * max
		out = append(out, row)
	})
	return out, err
}

// EdgeLoadRow is one (offered load, routing policy) point of the
// single-site edge study.
type EdgeLoadRow struct {
	ArrivalPerSec float64
	Policy        string
	P50Ms, P99Ms  float64
	// Offered = Served + Shed + InFlight at the end of the run.
	Offered, Served, Shed, InFlight int
	// ServersUsed counts satellites that served at least one request.
	ServersUsed int
	// MaxUtilization is the busiest satellite's service core-seconds over
	// its cores × the arrival window: the load it was handed, above 1
	// when it is still draining a backlog after arrivals stop.
	MaxUtilization float64
}

// edgeLoadSec is the arrival window of the edge study: short enough that
// the footprint is the one frozen at t=0 (a satellite moves ~7.5 km/s,
// small against the coverage cone).
const edgeLoadSec = 20

// EdgeLoadStudy is §3.1 under load: one city's request stream (Lagos,
// log-normal service times with a 10 ms median) against the 64-core
// satellite-servers in view, with an unbounded queue so overload shows as
// latency, not shedding. It compares nearest-satellite attachment with
// least-loaded spreading on the same trace.
func EdgeLoadStudy(rates []float64) ([]EdgeLoadRow, error) {
	set := ConstellationSet{Starlink: true}
	consts, err := set.build()
	if err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		rates = []float64{100, 1000, 4000, 8000}
	}
	lagos := geo.LatLon{LatDeg: 6.52, LonDeg: 3.38}
	cfg := serve.Config{
		Sites:    []serve.Site{{Name: "Lagos", Loc: lagos, ECEF: lagos.ECEF(), Weight: 1}},
		QueueCap: -1,
	}
	w := serve.Workload{Seed: 11, ServiceMedianMs: 10}
	policies := []serve.Policy{serve.Nearest(), serve.LeastLoaded()}

	var out []EdgeLoadRow
	err = servePoints(consts[0], cfg, policies, w, rates, edgeLoadSec, func(rate float64, r serve.Result) {
		row := EdgeLoadRow{
			ArrivalPerSec: rate,
			Policy:        r.Policy,
			Offered:       r.Offered,
			Served:        r.Served,
			Shed:          r.ShedTotal(),
			InFlight:      r.InFlight,
			ServersUsed:   r.SatsUsed,
		}
		row.P50Ms, row.P99Ms = latencyQuantiles(r)
		// Result.Utilization divides by the whole run; rescale to the
		// window in which work arrived.
		for _, u := range r.Utilization {
			row.MaxUtilization = max(row.MaxUtilization, u*(edgeLoadSec+serveDrainSec)/edgeLoadSec)
		}
		out = append(out, row)
	})
	return out, err
}
