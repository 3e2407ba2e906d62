package inorbit

import (
	"repro/internal/compute"
	"repro/internal/ephem"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/meetup"
	"repro/internal/obs"
)

// Option configures a Service at construction:
//
//	svc, err := inorbit.New(inorbit.Starlink,
//	        inorbit.WithStepSec(1),
//	        inorbit.WithFaults(inorbit.FaultConfig{Seed: 7, SatMTBFSec: 6 * 3600}))
//
// Options apply in order; later options win on conflict.
type Option interface {
	apply(*settings)
}

// settings is the merged result of applying every Option; zero fields mean
// the defaults the option documenting each one names.
type settings struct {
	server  compute.ServerSpec
	meetup  meetup.Config
	islGbps float64
	ephem   ephem.Config
	fleet   fleet.Config
	faults  *faults.Config
}

// funcOption adapts a closure to the Option interface.
type funcOption func(*settings)

func (f funcOption) apply(s *settings) { f(s) }

// WithServer sets the per-satellite compute payload (default: the paper's
// HPE DL325 reference). It applies to both edge views and fleet capacity.
func WithServer(spec compute.ServerSpec) Option {
	return funcOption(func(s *settings) {
		s.server = spec
		s.fleet.Server = spec
	})
}

// WithMeetup sets the meetup selection parameters (Sticky band, pool,
// lookahead; default: the paper's §5 values).
func WithMeetup(cfg meetup.Config) Option {
	return funcOption(func(s *settings) { s.meetup = cfg })
}

// WithISLBandwidth sets the inter-satellite link rate in Gb/s used for
// state migration (default: the laser-terminal class rate).
func WithISLBandwidth(gbps float64) Option {
	return funcOption(func(s *settings) {
		s.islGbps = gbps
		s.fleet.ISLBandwidthGbps = gbps
	})
}

// WithStepSec sets the fleet epoch length in simulated seconds
// (default 60). Shorter steps detect hand-off pressure sooner at
// proportionally more planner work.
func WithStepSec(sec float64) Option {
	return funcOption(func(s *settings) { s.fleet.StepSec = sec })
}

// WithFleet overrides the full fleet orchestrator configuration for
// Service.NewFleet. Finer-grained options (WithStepSec, WithFaults,
// WithWorkers) applied after it still take effect.
func WithFleet(cfg FleetConfig) Option {
	return funcOption(func(s *settings) { s.fleet = fleet.Config(cfg) })
}

// WithFaults arms the deterministic chaos layer: Service.Faults builds
// injectors from this configuration and Service.NewFleet wires one into
// the orchestrator automatically.
func WithFaults(cfg FaultConfig) Option {
	return funcOption(func(s *settings) {
		c := faults.Config(cfg)
		s.faults = &c
	})
}

// WithWorkers bounds the parallelism of snapshot propagation and fleet
// planning (default: the available cores).
func WithWorkers(n int) Option {
	return funcOption(func(s *settings) {
		s.ephem.Workers = n
		s.fleet.Workers = n
	})
}

// WithRegistry routes ephem_* and fleet_* metric families to a caller
// registry instead of the process default.
func WithRegistry(reg *obs.Registry) Option {
	return funcOption(func(s *settings) {
		s.ephem.Registry = reg
		s.fleet.Registry = reg
	})
}

// FleetOption configures one orchestrator built by Service.NewFleet. It
// refines the service-wide fleet settings (WithFleet, WithStepSec,
// WithWorkers, ...) for that orchestrator only:
//
//	fl, err := svc.NewFleet(
//	        inorbit.WithFleetSessions(1_000_000),
//	        inorbit.WithFleetEpoch(60))
//
// FleetOptions apply in order; later options win on conflict.
type FleetOption interface {
	applyFleet(*fleet.Config)
}

// fleetFuncOption adapts a closure to the FleetOption interface.
type fleetFuncOption func(*fleet.Config)

func (f fleetFuncOption) applyFleet(c *fleet.Config) { f(c) }

// WithFleetSessions sizes the orchestrator for the intended session
// population: the session table and the planner's per-epoch scratch are
// pre-allocated for n sessions. It is a hint — the fleet grows past it
// without error — but the right hint avoids incremental growth stalls on
// million-session ingest.
func WithFleetSessions(n int) FleetOption {
	return fleetFuncOption(func(c *fleet.Config) { c.ExpectedSessions = n })
}

// WithFleetEpoch sets this orchestrator's epoch length in simulated
// seconds (default 60, or the service-wide WithStepSec value).
func WithFleetEpoch(stepSec float64) FleetOption {
	return fleetFuncOption(func(c *fleet.Config) { c.StepSec = stepSec })
}

// WithFleetLookahead sets the visibility lookahead horizon in simulated
// seconds used to rank candidates by remaining visibility (default 1200,
// the meetup Sticky horizon). Must be at least the epoch length.
func WithFleetLookahead(sec float64) FleetOption {
	return fleetFuncOption(func(c *fleet.Config) { c.LookaheadSec = sec })
}

// WithFleetCapacity sets the per-satellite compute payload for this
// orchestrator (default: the paper's HPE DL325 reference, or the
// service-wide WithServer value).
func WithFleetCapacity(spec ServerSpec) FleetOption {
	return fleetFuncOption(func(c *fleet.Config) { c.Server = spec })
}
