// Package inorbit is the public facade of the in-orbit computing library —
// a reproduction of "In-orbit Computing: An Outlandish thought Experiment?"
// (HotNets 2020). A Service is in-orbit compute as a service over one LEO
// mega-constellation: it answers what compute a ground location reaches,
// at what latency (§3.1: Edge, Covered), and where a user group's
// "virtually stationary" meetup server runs as satellites pass (§3.2/§5:
// Meetup, PlaceVirtualServer), one session or a fleet of them (NewFleet).
//
// Construction uses functional options:
//
//	svc, _ := inorbit.New(inorbit.Starlink,
//	        inorbit.WithStepSec(30),
//	        inorbit.WithWorkers(4))
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
// package is where they are composed into the service.
package inorbit

import (
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/meetup"
	"repro/internal/migrate"
	"repro/internal/units"
	"repro/internal/visibility"
)

// LatLon is a geographic position (degrees north / east).
type LatLon = geo.LatLon

// Vec3 is a 3-vector in km (ECEF unless noted) — the element type of
// Ephemeris frames.
type Vec3 = geo.Vec3

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

// ConstellationChoice names a preset constellation for New.
type ConstellationChoice string

// Preset constellations.
const (
	// Starlink is SpaceX's Phase I filing: 4,409 satellites in 5 shells.
	Starlink ConstellationChoice = "starlink"
	// Kuiper is Amazon's filing: 3,236 satellites in 3 shells.
	Kuiper ConstellationChoice = "kuiper"
	// Telesat is Telesat's Lightspeed filing: 1,671 satellites.
	Telesat ConstellationChoice = "telesat"
)

// Ephemeris is the stable propagation surface: where every satellite is at
// time t. Frames from SnapshotAt are shared and immutable; SnapshotInto
// fills a caller buffer with exact positions. The service-wide
// implementation parallelises propagation across the available cores and
// stores recent frames so concurrent consumers reuse each other's work.
type Ephemeris interface {
	// Size returns the number of satellites per frame.
	Size() int
	// SnapshotAt returns the shared immutable ECEF frame at tSec.
	SnapshotAt(tSec float64) []geo.Vec3
	// SnapshotInto fills dst (length Size()) with exact positions at tSec.
	SnapshotInto(tSec float64, dst []geo.Vec3) error
}

// Service is the in-orbit computing service over one constellation.
type Service struct {
	constellation *constellation.Constellation
	observer      *visibility.Observer
	grid          *isl.Grid
	eng           *ephem.Engine
	set           settings
}

// New builds the service over a preset constellation. Pass functional
// options (WithStepSec, WithFaults, WithWorkers, ...) to configure it.
func New(choice ConstellationChoice, opts ...Option) (*Service, error) {
	c, err := constellation.Preset(string(choice))
	if err != nil {
		return nil, err
	}
	return NewCustom(c, opts...)
}

// NewCustom builds the service over a caller-assembled constellation
// (see Shell and BuildConstellation).
func NewCustom(c *constellation.Constellation, opts ...Option) (*Service, error) {
	if c == nil || c.Size() == 0 {
		return nil, fmt.Errorf("inorbit: empty constellation")
	}
	var set settings
	for _, o := range opts {
		if o != nil {
			o.apply(&set)
		}
	}
	if set.server == (compute.ServerSpec{}) {
		set.server = compute.DefaultServerSpec()
	}
	if err := set.server.Validate(); err != nil {
		return nil, err
	}
	if set.islGbps == 0 {
		set.islGbps = isl.BandwidthGbps
	}
	if set.islGbps < 0 || math.IsNaN(set.islGbps) || math.IsInf(set.islGbps, 0) {
		return nil, fmt.Errorf("inorbit: ISL bandwidth %v Gb/s must be positive and finite", set.islGbps)
	}
	// One engine serves every snapshot consumer in the service: edge views,
	// meetup planners and virtual servers, the observer's pass sweeps, and
	// every fleet orchestrator NewFleet builds.
	eng := ephem.New(c, set.ephem)
	return &Service{
		constellation: c,
		observer:      visibility.NewObserver(c).UseEphemeris(eng),
		grid:          isl.NewPlusGrid(c),
		eng:           eng,
		set:           set,
	}, nil
}

// Constellation exposes the underlying constellation.
func (s *Service) Constellation() *constellation.Constellation { return s.constellation }

// Observer exposes the visibility evaluator.
func (s *Service) Observer() *visibility.Observer { return s.observer }

// Grid exposes the ISL topology.
func (s *Service) Grid() *isl.Grid { return s.grid }

// Ephemeris returns the service-wide propagation engine.
func (s *Service) Ephemeris() Ephemeris { return s.eng }

// Servers returns the total number of satellite-servers.
func (s *Service) Servers() int { return s.constellation.Size() }

// EdgeView is the answer to "what compute can I reach from here, now".
type EdgeView struct {
	// Reachable lists every satellite-server in view, nearest first not
	// guaranteed — use Nearest for the optimum.
	Reachable []visibility.Pass
	// NearestRTTMs is the RTT to the closest server; +Inf when uncovered.
	NearestRTTMs float64
	// FarthestRTTMs is the RTT to the farthest directly reachable server.
	FarthestRTTMs float64
	// TotalCores is the aggregate effective core count in view.
	TotalCores float64
}

// Edge evaluates the edge-computing view from a ground location at tSec.
func (s *Service) Edge(tSec float64, loc LatLon) (EdgeView, error) {
	if !loc.Valid() {
		return EdgeView{}, fmt.Errorf("inorbit: invalid location %v", loc)
	}
	snap := s.eng.SnapshotAt(tSec)
	g := loc.ECEF()
	passes := s.observer.Reachable(g, snap, nil)
	view := EdgeView{Reachable: passes}
	near, far, ok := s.observer.NearestFarthest(g, snap)
	if !ok {
		view.NearestRTTMs = math.Inf(1)
		view.FarthestRTTMs = math.Inf(1)
		return view, nil
	}
	view.NearestRTTMs = units.RTTMs(near)
	view.FarthestRTTMs = units.RTTMs(far)
	view.TotalCores = float64(len(passes)) * s.set.server.EffectiveCores()
	return view, nil
}

// Covered reports whether the location can reach any server at tSec. An
// invalid location (one Edge rejects) is never covered.
func (s *Service) Covered(tSec float64, loc LatLon) bool {
	if !loc.Valid() {
		return false
	}
	_, _, ok := s.observer.Nearest(loc.ECEF(), s.eng.SnapshotAt(tSec))
	return ok
}

// Meetup builds a meetup planner for a user group over the service's
// constellation and ISL grid, with the WithMeetup parameters.
func (s *Service) Meetup(users []LatLon) (*meetup.Planner, error) {
	return meetup.NewPlanner(s.constellation, s.grid, users, s.set.meetup)
}

// Feasibility runs the §4 analysis with the paper's defaults.
func (s *Service) Feasibility() (feasibility.Report, error) {
	return feasibility.Analyze(feasibility.Default())
}

// VirtualServer is the paper's headline abstraction: a logical server that
// appears stationary above a user group while physically hopping between
// satellites, with state migrated ahead of every hand-off.
type VirtualServer struct {
	svc     *Service
	planner *meetup.Planner
	policy  meetup.Policy
	state   migrate.State
}

// PlaceVirtualServer creates a virtual server for the group under the given
// selection policy and application state profile.
func (s *Service) PlaceVirtualServer(users []LatLon, policy Policy, state State) (*VirtualServer, error) {
	if err := state.Validate(); err != nil {
		return nil, err
	}
	p, err := s.Meetup(users)
	if err != nil {
		return nil, err
	}
	return &VirtualServer{svc: s, planner: p, policy: policy, state: state}, nil
}

// RunReport is a virtual server session outcome with migration costs: the
// meetup session result plus one live migration per hand-off.
type RunReport struct {
	meetup.SessionResult
	// Migrations holds the per-hand-off live-migration results, aligned
	// with SessionResult.Handoffs.
	Migrations []migrate.Result
	// TotalDowntimeSec sums the stop-and-copy pauses over the session.
	TotalDowntimeSec float64
	// GEOAdvantage is how many times lower the session's mean RTT is than
	// a GEO hop — the "GEO-like stationarity without the GEO latency
	// penalty" number.
	GEOAdvantage float64
}

// Run simulates the virtual server from t0 for durationSec at stepSec
// resolution: server selection + hand-offs per policy, and a live migration
// of the application state at every hand-off.
func (v *VirtualServer) Run(t0, durationSec, stepSec float64) (RunReport, error) {
	res, err := v.planner.Simulate(v.svc.eng, v.policy, t0, durationSec, stepSec)
	if err != nil {
		return RunReport{}, err
	}
	rep := RunReport{SessionResult: res}
	bw := migrate.GbpsToMBps(v.svc.set.islGbps)
	for _, h := range res.Handoffs {
		m, err := migrate.Live(v.state, migrate.Link{BandwidthMBps: bw, OneWayMs: h.TransferMs},
			migrate.LiveConfig{GenericReplicatedAhead: true})
		if err != nil {
			return RunReport{}, fmt.Errorf("inorbit: migration at t=%.0fs: %w", h.TimeSec, err)
		}
		rep.Migrations = append(rep.Migrations, m)
		rep.TotalDowntimeSec += m.DowntimeSec
	}
	if res.RTT.Mean() > 0 {
		rep.GEOAdvantage = migrate.GEOComparison(res.RTT.Mean())
	}
	return rep, nil
}

// Policy returns the virtual server's selection policy.
func (v *VirtualServer) Policy() Policy { return v.policy }

// NewFleet builds a fleet orchestrator from the service's construction
// options (WithStepSec, WithFleet, WithWorkers, ...) refined by
// per-orchestrator FleetOptions (WithFleetSessions, WithFleetEpoch,
// WithFleetCapacity, ...). The orchestrator shares the service's ISL grid
// and ephemeris engine; WithFaults arms it with a fresh injector. Each call
// returns an independent orchestrator.
func (s *Service) NewFleet(opts ...FleetOption) (*Fleet, error) {
	cfg := s.set.fleet
	for _, o := range opts {
		if o != nil {
			o.applyFleet(&cfg)
		}
	}
	cfg.Ephem = s.eng
	if s.set.faults != nil {
		inj, err := faults.New(s.Servers(), *s.set.faults)
		if err != nil {
			return nil, err
		}
		cfg.Faults = inj
	}
	return fleet.New(s.constellation, s.grid, cfg)
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
// internal/faults). Arm a service with WithFaults to have Service.NewFleet
// wire one in automatically.
type FaultInjector = faults.Injector

// FaultConfig parameterises a FaultInjector.
type FaultConfig = faults.Config
