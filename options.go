package inorbit

import (
	"repro/internal/compute"
	"repro/internal/ephem"
	"repro/internal/faults"
	"repro/internal/fleet"
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
// Service.NewFleet. Finer-grained options (WithStepSec, WithServer,
// WithISLBandwidth, WithWorkers) applied after it still take effect; the
// server spec, ISL rate and worker bound also reach the fleet from before
// it wherever cfg leaves them zero.
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
