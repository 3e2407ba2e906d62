package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/cities"
	"repro/internal/compute"
	"repro/internal/driver"
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
	serve.Workload // the generated arrivals (RatePerSec 0 = off unless replaying)

	policy    string  // nearest, least-loaded, sticky, or all
	sites     int     // request sites = top-N cities
	cores     int     // request cores per satellite-server
	queue     int     // per-satellite queue bound beyond the cores (>= 1, or -1 = unbounded)
	tracePath string  // write the generated trace as JSONL
	replay    string  // replay a JSONL trace instead of generating
	availSLO  float64 // served/offered availability objective per policy
}

// enabled reports whether the serving layer runs at all.
func (so serveOptions) enabled() bool { return so.RatePerSec > 0 || so.replay != "" }

func (so serveOptions) validate() error {
	if !so.enabled() {
		return nil
	}
	if so.RatePerSec < 0 {
		return fmt.Errorf("serve-rate %v must be non-negative", so.RatePerSec)
	}
	if so.sites <= 0 || so.sites > cities.MaxCities {
		return fmt.Errorf("serve-sites %d outside [1,%d]", so.sites, cities.MaxCities)
	}
	if so.ServiceMedianMs <= 0 {
		return fmt.Errorf("serve-service-ms %v must be positive", so.ServiceMedianMs)
	}
	if so.ServiceSigma < 0 {
		return fmt.Errorf("serve-sigma %v must be non-negative", so.ServiceSigma)
	}
	if so.DiurnalAmplitude < 0 || so.DiurnalAmplitude >= 1 {
		return fmt.Errorf("serve-diurnal %v outside [0,1)", so.DiurnalAmplitude)
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

// configure sets cfg's serving half: one engine per compared policy, and
// where their arrivals come from. Under -serve-rate no trace is ever held:
// each engine pulls its own generator, and generators built from one seed
// yield the same requests. A replayed trace is read once and the engines
// share the slice.
func (so serveOptions) configure(cfg *driver.Config, out io.Writer) error {
	sites := serve.SitesFromCities(so.sites)
	if so.replay != "" {
		f, err := os.Open(so.replay)
		if err != nil {
			return err
		}
		cfg.Requests, err = serve.ReadTrace(bufio.NewReader(f))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "serve: replaying %d requests from %s\n", len(cfg.Requests), so.replay)
	} else {
		cfg.Generate = &so.Workload
	}
	if so.tracePath != "" {
		write := func(w io.Writer) error { return serve.WriteTrace(w, cfg.Requests) }
		if so.replay == "" {
			// One more generator instance, streamed to the file run by run.
			g, err := serve.NewGenerator(sites, so.Workload, cfg.HorizonSec)
			if err != nil {
				return err
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
			return err
		}
		fmt.Fprintf(out, "serve: trace written to %s\n", so.tracePath)
	}

	policies, err := so.policies()
	if err != nil {
		return err
	}
	server := compute.DefaultServerSpec()
	server.Cores = so.cores
	cfg.Policies = policies
	cfg.Serve = serve.Config{Sites: sites, Server: server, QueueCap: so.queue, Registry: cfg.Fleet.Registry}
	return nil
}

// slos builds one availability objective per compared policy.
func (so serveOptions) slos(policies []serve.Policy) []obs.SLO {
	out := make([]obs.SLO, 0, len(policies))
	for _, p := range policies {
		out = append(out, obs.SLO{
			Name:        fmt.Sprintf("serve %s avail >= %.1f%%", p.Name(), 100*so.availSLO),
			Kind:        obs.SLORatio,
			Metric:      "serve_served_total",
			TotalMetric: "serve_requests_total",
			Labels:      map[string]string{"policy": p.Name()},
			Objective:   so.availSLO,
		})
	}
	return out
}

// serveReport prints the per-policy serving summary: request latency
// quantiles, shedding by reason, and how the load spread over the
// satellite-servers. Simulated quantities only — diffable across runs.
func serveReport(out io.Writer, engines []*serve.Engine) error {
	// Every engine pulled the same arrivals up to the same instant.
	fmt.Fprintf(out, "\nserve report — %d requests offered per policy\n", engines[0].Result().Offered)
	header := []string{"policy", "served", "shed", "p50 ms", "p99 ms", "sats", "util p50", "util max", "peak q"}
	rows := make([][]string, 0, len(engines))
	for _, e := range engines {
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
