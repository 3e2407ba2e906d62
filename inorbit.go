// Package inorbit is the public facade of the in-orbit computing library —
// a reproduction of "In-orbit Computing: An Outlandish thought Experiment?"
// (HotNets 2020). Construction uses functional options:
//
//	svc, _ := inorbit.New(inorbit.Starlink,
//	        inorbit.WithStepSec(30),
//	        inorbit.WithEphemCache(128))
//	view, _ := svc.Edge(0, inorbit.LatLon{LatDeg: 9.06, LonDeg: 7.49})
//	fmt.Printf("nearest satellite-server: %.1f ms RTT\n", view.NearestRTTMs)
//
// Every snapshot consumer in a service — edge views, meetup planners,
// virtual servers, the fleet orchestrator — shares one Ephemeris: the
// parallel, cached propagation engine exported here as the stable
// propagation surface.
//
// The deeper machinery (orbital mechanics, visibility, ISL routing, meetup
// policies, migration, feasibility) lives in the internal packages; this
// package exposes the compositions a downstream user needs.
package inorbit

import (
	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/ephem"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/meetup"
	"repro/internal/migrate"
)

// LatLon is a geographic position (degrees north / east).
type LatLon = geo.LatLon

// Vec3 is a 3-vector in km (ECEF unless noted) — the element type of
// Ephemeris frames.
type Vec3 = geo.Vec3

// EdgeView answers "what compute can I reach from here, now".
type EdgeView = core.EdgeView

// VirtualServer is the virtually-stationary meetup server abstraction.
type VirtualServer = core.VirtualServer

// RunReport is a virtual server session outcome with migration costs.
type RunReport = core.RunReport

// State describes migratable application state.
type State = migrate.State

// Policy selects the meetup-server selection strategy.
type Policy = meetup.Policy

// Selection policies.
const (
	// MinMax re-picks the latency-optimal satellite at each instant.
	MinMax = meetup.MinMax
	// Sticky prioritises stationarity (the paper's §5 heuristic).
	Sticky = meetup.Sticky
)

// Preset constellations.
const (
	// Starlink is SpaceX's Phase I filing: 4,409 satellites in 5 shells.
	Starlink = core.Starlink
	// Kuiper is Amazon's filing: 3,236 satellites in 3 shells.
	Kuiper = core.Kuiper
	// Telesat is Telesat's Lightspeed filing: 1,671 satellites.
	Telesat = core.Telesat
)

// Ephemeris is the stable propagation surface: where every satellite is at
// time t. Frames from SnapshotAt are shared and immutable; SnapshotInto
// fills a caller buffer with exact positions. The service-wide
// implementation parallelises propagation across the available cores and
// caches keyframes so concurrent consumers reuse each other's work.
type Ephemeris interface {
	// Size returns the number of satellites per frame.
	Size() int
	// SnapshotAt returns the shared immutable ECEF frame at tSec.
	SnapshotAt(tSec float64) []geo.Vec3
	// SnapshotInto fills dst (length Size()) with exact positions at tSec.
	SnapshotInto(tSec float64, dst []geo.Vec3) error
}

// Service is the in-orbit computing service. It embeds the core service —
// Edge, Covered, Meetup, PlaceVirtualServer, Feasibility and the accessors
// are available directly — and adds the construction-time wiring for the
// fleet orchestrator and fault injection.
type Service struct {
	*core.Service
	set settings
}

// New builds the service over a preset constellation. Pass functional
// options (WithStepSec, WithFaults, WithEphemCache, ...) to configure it.
func New(choice core.ConstellationChoice, opts ...Option) (*Service, error) {
	set := collect(opts)
	svc, err := core.NewService(choice, set.core)
	if err != nil {
		return nil, err
	}
	return &Service{Service: svc, set: set}, nil
}

// NewCustom builds the service over a caller-assembled constellation
// (see Shell and BuildConstellation).
func NewCustom(c *constellation.Constellation, opts ...Option) (*Service, error) {
	set := collect(opts)
	svc, err := core.NewServiceFor(c, set.core)
	if err != nil {
		return nil, err
	}
	return &Service{Service: svc, set: set}, nil
}

func collect(opts []Option) settings {
	var set settings
	for _, o := range opts {
		if o != nil {
			o.apply(&set)
		}
	}
	return set
}

// Ephemeris returns the service-wide propagation engine.
func (s *Service) Ephemeris() Ephemeris { return s.Service.Ephemeris() }

// Fleet builds a fleet orchestrator from the service's construction
// options (WithStepSec, WithFleet, WithWorkers, ...), sharing the
// service's ISL grid and ephemeris engine. WithFaults arms it with a
// fresh injector. Each call returns an independent orchestrator.
func (s *Service) Fleet() (*Fleet, error) { return s.NewFleet() }

// NewFleet builds a fleet orchestrator from the service's construction
// options refined by per-orchestrator FleetOptions (WithFleetSessions,
// WithFleetEpoch, WithFleetCapacity, ...). The orchestrator shares the
// service's ISL grid and ephemeris engine; WithFaults arms it with a fresh
// injector. Each call returns an independent orchestrator.
func (s *Service) NewFleet(opts ...FleetOption) (*Fleet, error) {
	cfg := s.set.fleet
	for _, o := range opts {
		if o != nil {
			o.applyFleet(&cfg)
		}
	}
	cfg.Ephem = s.Service.Ephemeris()
	if s.set.faults != nil {
		inj, err := faults.New(s.Servers(), *s.set.faults)
		if err != nil {
			return nil, err
		}
		cfg.Faults = inj
	}
	return fleet.New(s.Constellation(), s.Grid(), cfg)
}

// Faults builds a fault injector from the WithFaults configuration, or
// reports ok=false when the service was built without one. Injectors are
// single-consumer: build one per orchestrator or experiment.
func (s *Service) Faults() (inj *FaultInjector, ok bool, err error) {
	if s.set.faults == nil {
		return nil, false, nil
	}
	inj, err = faults.New(s.Servers(), *s.set.faults)
	if err != nil {
		return nil, false, err
	}
	return inj, true, nil
}

// Shell is one Walker-delta constellation shell.
type Shell = constellation.Shell

// BuildConstellation assembles a custom constellation from shells.
func BuildConstellation(name string, shells []Shell) (*constellation.Constellation, error) {
	return constellation.Build(name, shells, constellation.Config{})
}

// Fleet is the fleet-scale session orchestrator: the epoch-batched control
// plane that places and migrates many concurrent sessions across the whole
// constellation under per-satellite capacity (see internal/fleet).
type Fleet = fleet.Orchestrator

// FleetConfig tunes the fleet orchestrator; the zero value uses the
// paper-derived defaults.
type FleetConfig = fleet.Config

// FleetSession is one session (a user group with resource demand) managed
// by a Fleet.
type FleetSession = fleet.Session

// FleetStats is the stable fleet snapshot returned by Fleet.Stats:
// population, decision and fault counters, and utilisation and latency
// distributions.
type FleetStats = fleet.Stats

// ServerSpec is the per-satellite compute payload, for WithServer and
// WithFleetCapacity.
type ServerSpec = compute.ServerSpec

// NewFleetSession builds a session for a user group with default demand;
// adjust its exported fields before submitting. Every user must be on the
// surface (AltKm 0).
func NewFleetSession(id uint64, users []LatLon) (*FleetSession, error) {
	return fleet.NewSession(id, users)
}

// FaultInjector is the deterministic chaos layer: seeded satellite hard
// failures, ISL degradation windows, and migration transfer failures (see
// internal/faults). Arm a service with WithFaults to have Service.Fleet
// wire one in automatically.
type FaultInjector = faults.Injector

// FaultConfig parameterises a FaultInjector.
type FaultConfig = faults.Config

// Compile-time check: the engine is the facade's Ephemeris.
var _ Ephemeris = (*ephem.Engine)(nil)
