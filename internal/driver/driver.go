// Package driver runs a fleet run's one epoch loop: sessions and their
// churn through the fleet orchestrator, requests through one serve engine
// per routing policy, and the flight recorder, all over one constellation.
// It owns the two decisions every such run shares:
//
//   - The epoch order. Submit the churn that is due, fleet.Step, RunUntil
//     on every engine up to the fleet's clock, then MaybeRecord, so a
//     timeline frame sees the fleet and the engines at the same instant.
//   - The sharing rules. The engines read the orchestrator's ephemeris
//     engine and refresh at the fleet's epoch, and each consumer gets its
//     own injector from one fault schedule, so every policy faces the
//     failures the sessions do.
package driver

import (
	"math/rand"

	"repro/internal/constellation"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Workload is the seeded session population: Sessions long-lived groups
// plus a Poisson stream of transient ones.
type Workload struct {
	Seed     int64
	Sessions int     // long-lived groups
	MinUsers int     // smallest group size
	MaxUsers int     // largest group size
	SpreadKm float64 // max user distance from the group's anchor city
	Churn    float64 // transient arrivals per second
	DwellSec float64 // mean lifetime of transient sessions
	Demand   float64 // per-session cores demand
}

// Arrival is one transient session joining mid-run.
type Arrival struct {
	At   float64
	Sess *fleet.Session
}

// Sessions generates w's population over horizonSec: the persistent
// sessions, and the transient ones in arrival order.
func Sessions(w Workload, horizonSec float64) (persistent []*fleet.Session, churn []Arrival, err error) {
	times := trace.Poisson(w.Seed+1, w.Churn, horizonSec)
	groups, err := trace.Groups(trace.GroupConfig{
		Seed:         w.Seed,
		Groups:       w.Sessions + len(times),
		MinUsers:     w.MinUsers,
		MaxUsers:     w.MaxUsers,
		SpreadKm:     w.SpreadKm,
		MaxAbsLatDeg: 55, // inside every preset's coverage band
	})
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(w.Seed + 2))
	for i, g := range groups {
		s, err := fleet.NewSession(uint64(i+1), g.Users)
		if err != nil {
			return nil, nil, err
		}
		s.StateMB = trace.StateSizeMB(r, 64, 0.5)
		s.CoresDemand = w.Demand
		if i < w.Sessions {
			persistent = append(persistent, s)
			continue
		}
		at := times[i-w.Sessions]
		s.ExpiresAt = at + r.ExpFloat64()*w.DwellSec
		churn = append(churn, Arrival{At: at, Sess: s})
	}
	return persistent, churn, nil
}

// Config is what a run shares between its consumers.
type Config struct {
	// Fleet configures the orchestrator. Its Faults is the driver's.
	Fleet fleet.Config
	// Faults, when set, is the run's one fault schedule: the orchestrator
	// and every engine get their own injector from it (same seed, same
	// schedule).
	Faults *faults.Config
	// Policies get one serve engine each (none: no serving layer), built
	// from the Serve template. Its Policy, Ephem, RefreshSec and Faults
	// are the driver's.
	Policies []serve.Policy
	Serve    serve.Config
	// Requests is fed to every engine as one shared slice, unless Generate
	// is set: then each engine pulls its own generator of that workload
	// over Serve.Sites up to HorizonSec, and no trace is ever held.
	Requests   []serve.Request
	Generate   *serve.Workload
	HorizonSec float64
	// Timeline, when set, records after every epoch.
	Timeline *obs.Timeline
}

// Driver is one run's epoch loop. Build with New, then Step once per epoch.
type Driver struct {
	orch    *fleet.Orchestrator
	engines []*serve.Engine
	churn   []Arrival
	next    int // churn[:next] are submitted
	tl      *obs.Timeline
}

// New builds the orchestrator and the engines, submits the persistent
// sessions and starts the fleet at t = 0. churn must be in arrival order.
func New(c *constellation.Constellation, cfg Config, persistent []*fleet.Session, churn []Arrival) (*Driver, error) {
	injector := func() (*faults.Injector, error) {
		if cfg.Faults == nil {
			return nil, nil
		}
		return faults.New(c.Size(), *cfg.Faults)
	}
	fc := cfg.Fleet
	var err error
	if fc.Faults, err = injector(); err != nil {
		return nil, err
	}
	orch, err := fleet.New(c, nil, fc)
	if err != nil {
		return nil, err
	}
	d := &Driver{orch: orch, churn: churn, tl: cfg.Timeline}
	for _, p := range cfg.Policies {
		sc := cfg.Serve
		sc.Policy, sc.Ephem, sc.RefreshSec = p, orch.Ephemeris(), fc.StepSec
		if sc.Faults, err = injector(); err != nil {
			return nil, err
		}
		e, err := serve.NewEngine(c, sc)
		if err != nil {
			return nil, err
		}
		if cfg.Generate != nil {
			g, err := serve.NewGenerator(sc.Sites, *cfg.Generate, cfg.HorizonSec)
			if err != nil {
				return nil, err
			}
			e.FeedFrom(g)
		} else if err := e.Feed(cfg.Requests); err != nil {
			return nil, err
		}
		d.engines = append(d.engines, e)
	}
	if err := orch.SubmitBatch(persistent); err != nil {
		return nil, err
	}
	if err := orch.Start(0); err != nil {
		return nil, err
	}
	return d, nil
}

// Step runs one epoch: it submits every transient session that has
// arrived by the fleet's clock, steps the fleet, runs every engine up to
// the fleet's new clock and records the timeline. The report is the
// fleet's, for the caller to fold.
func (d *Driver) Step() (fleet.EpochReport, error) {
	for ; d.next < len(d.churn) && d.churn[d.next].At <= d.orch.Now(); d.next++ {
		if err := d.orch.Submit(d.churn[d.next].Sess); err != nil {
			return fleet.EpochReport{}, err
		}
	}
	rep, err := d.orch.Step()
	if err != nil {
		return rep, err
	}
	for _, e := range d.engines {
		if err := e.RunUntil(d.orch.Now()); err != nil {
			return rep, err
		}
	}
	if d.tl != nil {
		d.tl.MaybeRecord(d.orch.Now())
	}
	return rep, nil
}

// Orchestrator returns the run's fleet orchestrator.
func (d *Driver) Orchestrator() *fleet.Orchestrator { return d.orch }

// Engines returns the serve engines in Config.Policies order.
func (d *Driver) Engines() []*serve.Engine { return d.engines }
