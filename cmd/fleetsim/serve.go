package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/cities"
	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/serve"
	"repro/internal/stats"
)

// serveOptions is the -serve-* flag family: the request-serving layer
// driven alongside the fleet control plane. Everything here is simulated
// (no wall-clock quantities), so the serve report is byte-identical per
// seed and safe to diff across runs.
type serveOptions struct {
	rate      float64 // aggregate request arrivals per second (0 = off unless replaying)
	policy    string  // nearest, least-loaded, sticky, or all
	sites     int     // request sites = top-N cities
	serviceMs float64 // lognormal median service time
	sigma     float64 // lognormal shape
	diurnal   float64 // diurnal rate amplitude in [0,1)
	cores     int     // request cores per satellite-server
	queue     int     // per-satellite queue bound beyond the cores (>= 1, or -1 = unbounded)
	seed      int64   // workload seed (independent of the fleet seed)
	tracePath string  // write the generated trace as JSONL
	replay    string  // replay a JSONL trace instead of generating
	availSLO  float64 // served/offered availability objective per policy
}

// enabled reports whether the serving layer runs at all.
func (so serveOptions) enabled() bool { return so.rate > 0 || so.replay != "" }

func (so serveOptions) validate() error {
	if !so.enabled() {
		return nil
	}
	if so.rate < 0 {
		return fmt.Errorf("serve-rate %v must be non-negative", so.rate)
	}
	if so.sites <= 0 || so.sites > cities.MaxCities {
		return fmt.Errorf("serve-sites %d outside [1,%d]", so.sites, cities.MaxCities)
	}
	if so.serviceMs <= 0 {
		return fmt.Errorf("serve-service-ms %v must be positive", so.serviceMs)
	}
	if so.sigma < 0 {
		return fmt.Errorf("serve-sigma %v must be non-negative", so.sigma)
	}
	if so.diurnal < 0 || so.diurnal >= 1 {
		return fmt.Errorf("serve-diurnal %v outside [0,1)", so.diurnal)
	}
	if so.cores <= 0 {
		return fmt.Errorf("serve-cores %d must be positive", so.cores)
	}
	if so.queue != -1 && so.queue < 1 {
		return fmt.Errorf("serve-queue %d must be -1 (unbounded) or at least 1", so.queue)
	}
	if so.availSLO <= 0 || so.availSLO > 1 {
		return fmt.Errorf("slo-serve-avail %v outside (0,1]", so.availSLO)
	}
	if _, err := so.policies(); err != nil {
		return err
	}
	return nil
}

// policies resolves the -serve-policy flag ("all" compares the built-ins).
func (so serveOptions) policies() ([]serve.Policy, error) {
	if so.policy == "all" || so.policy == "" {
		return serve.Policies(), nil
	}
	p, err := serve.ByName(so.policy)
	if err != nil {
		return nil, err
	}
	return []serve.Policy{p}, nil
}

// serveRun is one engine per compared policy, all given the same arrivals
// and advanced in lockstep with the fleet epochs.
type serveRun struct {
	engines []*serve.Engine
}

// newServeRun builds the per-policy engines over the shared ephemeris
// engine. Under -serve-rate no trace is ever held: each engine pulls from
// its own generator, and generators built from one seed yield the same
// requests. A replayed trace is read once and the engines share the slice.
// Under chaos each engine gets its own fault injector from the same seed, so
// every policy faces the identical failure schedule.
func newServeRun(o options, c *constellation.Constellation, reg *obs.Registry,
	eng *ephem.Engine, horizonSec float64, out io.Writer) (*serveRun, error) {
	so := o.serve
	sites := serve.SitesFromCities(so.sites)
	newGenerator := func() (*serve.Generator, error) {
		return serve.NewGenerator(sites, serve.Workload{
			Seed:             so.seed,
			RatePerSec:       so.rate,
			ServiceMedianMs:  so.serviceMs,
			ServiceSigma:     so.sigma,
			DiurnalAmplitude: so.diurnal,
		}, horizonSec)
	}

	var replayed []serve.Request
	if so.replay != "" {
		f, err := os.Open(so.replay)
		if err != nil {
			return nil, err
		}
		replayed, err = serve.ReadTrace(bufio.NewReader(f))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "serve: replaying %d requests from %s\n", len(replayed), so.replay)
	}
	if so.tracePath != "" {
		write := func(w io.Writer) error { return serve.WriteTrace(w, replayed) }
		if so.replay == "" {
			// One more generator instance, streamed to the file run by run.
			g, err := newGenerator()
			if err != nil {
				return nil, err
			}
			write = func(w io.Writer) error {
				for run := g.Next(); len(run) > 0; run = g.Next() {
					if err := serve.WriteTrace(w, run); err != nil {
						return err
					}
				}
				return nil
			}
		}
		if err := writeFile(so.tracePath, write); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "serve: trace written to %s\n", so.tracePath)
	}

	policies, err := so.policies()
	if err != nil {
		return nil, err
	}
	server := compute.DefaultServerSpec()
	server.Cores = so.cores
	sr := &serveRun{}
	for _, p := range policies {
		var inj *faults.Injector
		if o.chaosEnabled() {
			inj, err = faults.New(c.Size(), o.faultConfig())
			if err != nil {
				return nil, err
			}
		}
		e, err := serve.NewEngine(c, serve.Config{
			Sites:      sites,
			Policy:     p,
			Server:     server,
			QueueCap:   so.queue,
			RefreshSec: o.stepSec,
			Registry:   reg,
			Faults:     inj,
			Ephem:      eng,
		})
		if err != nil {
			return nil, err
		}
		if so.replay != "" {
			if err := e.Feed(replayed); err != nil {
				return nil, err
			}
		} else {
			g, err := newGenerator()
			if err != nil {
				return nil, err
			}
			e.FeedFrom(g)
		}
		sr.engines = append(sr.engines, e)
	}
	return sr, nil
}

// advance runs every policy engine up to the fleet's current epoch time,
// so timeline frames capture the serve counters in lockstep.
func (sr *serveRun) advance(tSec float64) error {
	for _, e := range sr.engines {
		if err := e.RunUntil(tSec); err != nil {
			return err
		}
	}
	return nil
}

// slos builds one availability objective per compared policy.
func (sr *serveRun) slos(objective float64) []obs.SLO {
	out := make([]obs.SLO, 0, len(sr.engines))
	for _, e := range sr.engines {
		name := e.Result().Policy
		out = append(out, obs.SLO{
			Name:        fmt.Sprintf("serve %s avail >= %.1f%%", name, 100*objective),
			Kind:        obs.SLORatio,
			Metric:      "serve_served_total",
			TotalMetric: "serve_requests_total",
			Labels:      map[string]string{"policy": name},
			Objective:   objective,
		})
	}
	return out
}

// serveReport prints the per-policy serving summary: request latency
// quantiles, shedding by reason, and how the load spread over the
// satellite-servers. Simulated quantities only — diffable across runs.
func serveReport(out io.Writer, sr *serveRun) error {
	// Every engine pulled the same arrivals up to the same instant.
	fmt.Fprintf(out, "\nserve report — %d requests offered per policy\n", sr.engines[0].Result().Offered)
	header := []string{"policy", "served", "shed", "p50 ms", "p99 ms", "sats", "util p50", "util max", "peak q"}
	rows := make([][]string, 0, len(sr.engines))
	for _, e := range sr.engines {
		r := e.Result()
		var p50, p99 float64
		if r.LatencyMs.N() > 0 {
			p50 = r.LatencyMs.Median()
			p99 = r.LatencyMs.Quantile(0.99)
		}
		busy := make([]float64, 0, r.SatsUsed)
		for _, u := range r.Utilization {
			if u > 0 {
				busy = append(busy, u)
			}
		}
		util := stats.NewCDF(busy...)
		var utilP50, utilMax float64
		if util.N() > 0 {
			utilP50 = util.Median()
			utilMax = util.Max()
		}
		rows = append(rows, []string{
			r.Policy,
			fmt.Sprintf("%d", r.Served),
			shedLine(r),
			fmt.Sprintf("%.2f", p50),
			fmt.Sprintf("%.2f", p99),
			fmt.Sprintf("%d", r.SatsUsed),
			fmt.Sprintf("%.1f%%", 100*utilP50),
			fmt.Sprintf("%.1f%%", 100*utilMax),
			fmt.Sprintf("%d", r.PeakQueued),
		})
	}
	return plot.Table(out, header, rows)
}

// shedLine compacts the shed accounting: total, with per-reason detail when
// any request was dropped.
func shedLine(r serve.Result) string {
	total := r.ShedTotal()
	if total == 0 {
		return "0"
	}
	s := fmt.Sprintf("%d (", total)
	first := true
	for _, reason := range serve.ShedReasons {
		if n := r.Shed[reason]; n > 0 {
			if !first {
				s += ", "
			}
			s += fmt.Sprintf("%s %d", reason, n)
			first = false
		}
	}
	return s + ")"
}
