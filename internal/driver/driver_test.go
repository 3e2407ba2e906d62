package driver

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	stepSec = 60
	epochs  = 30
	horizon = epochs * stepSec
)

var (
	testWorkload = Workload{Seed: 5, Sessions: 40, MinUsers: 2, MaxUsers: 4, SpreadKm: 300,
		Churn: 0.2, DwellSec: 600, Demand: 0.5}
	// Harsh enough that every fault channel fires within the run; one
	// core and a queue of two behind it make the engines shed.
	testFaults = faults.Config{Seed: 3, SatMTBFHours: 1, SatMTTRSec: 600, ISLFlapPerHour: 2, MigrationFailProb: 0.1}
	testServe  = serve.Workload{Seed: 9, RatePerSec: 8, ServiceMedianMs: 200, DiurnalAmplitude: 0.6}
)

// side is one run's sessions and config, on its own registry and timeline.
type side struct {
	cfg        Config
	persistent []*fleet.Session
	churn      []Arrival
}

// newSide draws the workload afresh (the orchestrator keeps the sessions
// it is given) and lays every arrival on the 30 s grid, so half of them
// fall on an epoch boundary, where the churn cursor's <= decides.
func newSide(t *testing.T, requests []serve.Request) side {
	t.Helper()
	persistent, churn, err := Sessions(testWorkload, horizon)
	if err != nil {
		t.Fatal(err)
	}
	for i := range churn {
		churn[i].At = 30 * math.Floor(churn[i].At/30)
	}
	reg := obs.NewRegistry()
	server := compute.DefaultServerSpec()
	server.Cores = 1
	fc := testFaults
	cfg := Config{
		Fleet:      fleet.Config{StepSec: stepSec, ExpectedSessions: testWorkload.Sessions, Registry: reg},
		Faults:     &fc,
		Policies:   serve.Policies(),
		Serve:      serve.Config{Sites: serve.SitesFromCities(8), Server: server, QueueCap: 2, Registry: reg},
		Requests:   requests,
		HorizonSec: horizon,
		Timeline:   obs.NewTimeline(reg, obs.TimelineConfig{CadenceSec: stepSec}),
	}
	if requests == nil {
		w := testServe
		cfg.Generate = &w
	}
	return side{cfg, persistent, churn}
}

// oracle is the epoch loop as cmd/fleetsim ran it before the driver held
// it: an orchestrator and one engine per policy, built and stepped by hand.
type oracle struct {
	orch    *fleet.Orchestrator
	engines []*serve.Engine
	churn   []Arrival
	next    int
	tl      *obs.Timeline
}

func newOracle(t *testing.T, c *constellation.Constellation, s side) *oracle {
	t.Helper()
	inj, err := faults.New(c.Size(), *s.cfg.Faults)
	if err != nil {
		t.Fatal(err)
	}
	fc := s.cfg.Fleet
	fc.Faults = inj
	orch, err := fleet.New(c, nil, fc)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{orch: orch, churn: s.churn, tl: s.cfg.Timeline}
	for _, p := range s.cfg.Policies {
		inj, err := faults.New(c.Size(), *s.cfg.Faults)
		if err != nil {
			t.Fatal(err)
		}
		sc := s.cfg.Serve
		sc.Policy, sc.RefreshSec, sc.Faults, sc.Ephem = p, stepSec, inj, orch.Ephemeris()
		e, err := serve.NewEngine(c, sc)
		if err != nil {
			t.Fatal(err)
		}
		if s.cfg.Generate != nil {
			g, err := serve.NewGenerator(sc.Sites, *s.cfg.Generate, horizon)
			if err != nil {
				t.Fatal(err)
			}
			e.FeedFrom(g)
		} else if err := e.Feed(s.cfg.Requests); err != nil {
			t.Fatal(err)
		}
		o.engines = append(o.engines, e)
	}
	if err := orch.SubmitBatch(s.persistent); err != nil {
		t.Fatal(err)
	}
	if err := orch.Start(0); err != nil {
		t.Fatal(err)
	}
	return o
}

func (o *oracle) step() (fleet.EpochReport, error) {
	for o.next < len(o.churn) && o.churn[o.next].At <= o.orch.Now() {
		if err := o.orch.Submit(o.churn[o.next].Sess); err != nil {
			return fleet.EpochReport{}, err
		}
		o.next++
	}
	rep, err := o.orch.Step()
	if err != nil {
		return rep, err
	}
	for _, e := range o.engines {
		if err := e.RunUntil(o.orch.Now()); err != nil {
			return rep, err
		}
	}
	o.tl.MaybeRecord(o.orch.Now())
	return rep, nil
}

// TestStepMatchesOracle runs the driver beside the hand-built loop, three
// policies under chaos with churn, each side sharing one ephemeris engine
// and one registry between its consumers. After every Step the fleet's
// report (minus its wall time), every engine's result and the timeline's
// deterministic series must equal the oracle's, and the books must close:
// the table holds the persistent sessions plus the arrivals submitted
// minus the departures, and every engine accounts for each request it was
// offered, all of them offered the same.
func TestStepMatchesOracle(t *testing.T) {
	c, err := constellation.Preset("telesat")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := serve.Generate(serve.SitesFromCities(8), testServe, horizon)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		requests []serve.Request // nil: each engine pulls its own generator
	}{
		{"pulled", nil},
		{"shared", shared},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := newOracle(t, c, newSide(t, tc.requests))
			s := newSide(t, tc.requests)
			d, err := New(c, s.cfg, s.persistent, s.churn)
			if err != nil {
				t.Fatal(err)
			}
			var departed, sheds int
			for e := 0; e < epochs; e++ {
				submitted := 0
				for submitted < len(s.churn) && s.churn[submitted].At <= d.Orchestrator().Now() {
					submitted++
				}
				wantRep, err := want.step()
				if err != nil {
					t.Fatal(err)
				}
				rep, err := d.Step()
				if err != nil {
					t.Fatal(err)
				}
				wantRep.WallSec, rep.WallSec = 0, 0
				if !reflect.DeepEqual(rep, wantRep) {
					t.Fatalf("epoch %d: report\n%+v\nwant\n%+v", e, rep, wantRep)
				}
				departed += rep.Departures
				if want := len(s.persistent) + submitted - departed; rep.Sessions != want {
					t.Fatalf("epoch %d: %d sessions, want %d persistent + %d submitted - %d departed",
						e, rep.Sessions, len(s.persistent), submitted, departed)
				}
				for i, eng := range d.Engines() {
					r, w := eng.Result(), want.engines[i].Result()
					sameResult(t, e, r, w)
					if r.Offered != r.Served+r.InFlight+r.ShedTotal() {
						t.Fatalf("epoch %d: %s offered %d != served %d + in flight %d + shed %d",
							e, r.Policy, r.Offered, r.Served, r.InFlight, r.ShedTotal())
					}
					if first := d.Engines()[0].Result().Offered; r.Offered != first {
						t.Fatalf("epoch %d: %s offered %d, %s %d", e, r.Policy, r.Offered,
							d.Engines()[0].Result().Policy, first)
					}
					sheds += len(r.Shed)
				}
				sameFrames(t, e, s.cfg.Timeline.Frames(), want.tl.Frames())
			}
			if final := d.Engines()[0].Result(); final.Offered == 0 || sheds == 0 || departed == 0 {
				t.Fatalf("the run exercised too little: %d offered, %d shed reasons seen, %d departed",
					final.Offered, sheds, departed)
			}
		})
	}
}

// sameResult requires two engines' results to agree, latency samples
// included.
func sameResult(t *testing.T, epoch int, got, want serve.Result) {
	t.Helper()
	gx, gp := got.LatencyMs.Points()
	wx, wp := want.LatencyMs.Points()
	if !reflect.DeepEqual(gx, wx) || !reflect.DeepEqual(gp, wp) {
		t.Fatalf("epoch %d: %s latency samples differ from the oracle's", epoch, got.Policy)
	}
	got.LatencyMs, want.LatencyMs = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("epoch %d: result\n%+v\nwant\n%+v", epoch, got, want)
	}
}

// sameFrames requires the timelines to hold the same frames, every series
// but the host-timed ones (the *_seconds families and fleet_replan_ms)
// equal.
func sameFrames(t *testing.T, epoch int, got, want []obs.Frame) {
	t.Helper()
	if len(got) != len(want) || len(got) != epoch+1 {
		t.Fatalf("epoch %d: %d frames, oracle %d", epoch, len(got), len(want))
	}
	sim := func(f obs.Frame) []obs.Point {
		var out []obs.Point
		for _, p := range f.Points {
			if !strings.HasSuffix(p.Name, "_seconds") && p.Name != "fleet_replan_ms" {
				out = append(out, p)
			}
		}
		return out
	}
	g, w := got[epoch], want[epoch]
	if g.TSec != w.TSec || !reflect.DeepEqual(sim(g), sim(w)) {
		t.Fatalf("epoch %d: frame at %gs differs from the oracle's at %gs", epoch, g.TSec, w.TSec)
	}
}
