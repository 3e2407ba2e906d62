package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/cities"
	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The workload sizes at -scale 1, calibrated on the 2-core reference host
// (see README.md). Recalibrate the numbers, never the count or the shape.
// -scale and -seconds shorten the simulated horizon — epochs, serve steps,
// snapshots, session length — and leave the populations alone, so host time
// stays close to proportional.
const (
	epochSec   = 60.0 // fleet epoch = serve refresh = timeline cadence
	fullEpochs = 120  // 2 h simulated; 120 samples behind epoch_ms_p90

	steadySessions = 40000
	churnPerSec    = 2.0

	heavyReqPerSec = 350.0
	heavySteps     = 60 // 1 h simulated in 60 s RunUntil steps
	heavyRounds    = 10
	serveSites     = 40
	serveCores     = 8
	serveQueue     = 64

	flagshipSessions  = 23000
	flagshipReqPerSec = 140.0

	sweepGrounds     = 200
	sweepSnapshots   = 450
	sweepCadenceSec  = 2.0
	sweepPairs       = 40 // each routed both ways: 80 ShortestPath
	sweepSSSP        = 20 // each with one ground→sat ShortestPath: 100 in all
	sweepISL         = 50
	sweepColdEvery   = 10
	sweepMaxQueryLat = 50.0 // query endpoints stay where coverage never lapses

	paperGroups      = 22
	paperDurationSec = 7200.0
	paperStepSec     = 2.0
)

var workloads = []workload{
	{
		name: wlFleetSteady,
		why:  "planner-bound: 40k persistent sessions + churn over 120 one-minute epochs, no chaos, serving or timeline; fleet propose/index/admit dominates, so serve and obs changes must not move it",
		setup: func(r *run) (phase, error) {
			return setupFleetLoop(r, fleetSpec{sessions: steadySessions})
		},
	},
	{
		name: wlServeHeavy,
		why:  "serve-bound: one diurnal 1 h request trace through nearest, sticky (sharded path) and least-loaded (exact serial replay), no orchestrator, ten rounds from fresh engines; fleet changes must not move it",
		// One round measures ~1.5 s: the trace is kept small because
		// first-touch page faults, 2-100 us each on the reference VM, would
		// otherwise dominate set-up (README.md).
		rounds: heavyRounds,
		setup:  setupServeHeavy,
	},
	{
		name: wlFlagshipChaos,
		why:  "the mix: sessions + churn + three serve policies + chaos + timeline export in the cmd/fleetsim loop, sharing one ephemeris cache and the cores; catches a win in isolation that loses together",
		setup: func(r *run) (phase, error) {
			return setupFleetLoop(r, fleetSpec{
				sessions: flagshipSessions,
				reqRate:  flagshipReqPerSec,
				chaos:    true,
				timeline: true,
			})
		},
	},
	{
		name:  wlRoutingSweep,
		why:   "netgraph-bound: an AtAfter snapshot chain at 2 s cadence over 200 city grounds with path, SSSP and ISL queries and periodic cold freezes; the only place delta-freeze, ALT and frozen ISL dominate",
		setup: setupRoutingSweep,
	},
	{
		name:  wlPaperHandoff,
		why:   "ephem-bound: the paper's Fig 6/7 hand-off study at paper scale (2 h sessions at 2 s steps, MinMax + Sticky); ephemeris cache and interpolation changes show here and nowhere else",
		setup: setupPaperHandoff,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Seeds derived from the harness seed, one stream per generated input.
const (
	seedFleet = iota + 1
	seedServe
	seedFaults
	seedPairs
	seedFig67
)

func (r *run) subSeed(stream int64) int64 { return r.seed*7919 + stream }

// buildStarlink is the set-up step every workload shares.
func (r *run) buildStarlink() (*constellation.Constellation, error) {
	s := r.t.site("constellation.StarlinkPhase1", false)
	tk := s.begin()
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	r.v["constellation.build_s"] = s.end(tk).Seconds()
	r.c, r.cadenceSec = c, epochSec
	return c, err
}

func chaosConfig(seed int64) faults.Config {
	return faults.Config{Seed: seed, SatMTBFHours: 100, ISLFlapPerHour: 0.5, MigrationFailProb: 0.01}
}

// ---- fleet-steady and flagship-chaos: the cmd/fleetsim loop ----

type fleetSpec struct {
	sessions int
	reqRate  float64 // 0 = no serving layer
	chaos    bool
	timeline bool
}

type arrival struct {
	at   float64
	sess *fleet.Session
}

// fleetSessions generates the seeded population the way cmd/fleetsim does:
// persistent groups plus a Poisson stream of transient ones.
func (r *run) fleetSessions(n int, horizonSec float64) (persistent []*fleet.Session, churn []arrival, err error) {
	seed := r.subSeed(seedFleet)
	times := trace.Poisson(seed+1, churnPerSec, horizonSec)
	s := r.t.site("trace.Groups", false)
	tk := s.begin()
	groups, err := trace.Groups(trace.GroupConfig{
		Seed: seed, Groups: n + len(times), MinUsers: 2, MaxUsers: 5, SpreadKm: 300, MaxAbsLatDeg: 55,
	})
	r.v["trace.groups_s"] = s.end(tk).Seconds()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 2))
	for i, g := range groups {
		sess, err := fleet.NewSession(uint64(i+1), g.Users)
		if err != nil {
			return nil, nil, err
		}
		sess.StateMB = trace.StateSizeMB(rng, 64, 0.5)
		sess.CoresDemand = 0.5
		if i < n {
			persistent = append(persistent, sess)
			continue
		}
		at := times[i-n]
		sess.ExpiresAt = at + rng.ExpFloat64()*1800
		churn = append(churn, arrival{at: at, sess: sess})
	}
	return persistent, churn, nil
}

func setupFleetLoop(r *run, spec fleetSpec) (phase, error) {
	c, err := r.buildStarlink()
	if err != nil {
		return phase{}, err
	}
	epochs := r.scaled(fullEpochs, 2)
	horizonSec := float64(epochs) * epochSec
	persistent, churn, err := r.fleetSessions(spec.sessions, horizonSec)
	if err != nil {
		return phase{}, err
	}

	var inj *faults.Injector
	if spec.chaos {
		s := r.t.site("faults.New", false)
		tk := s.begin()
		inj, err = faults.New(c.Size(), chaosConfig(r.subSeed(seedFaults)))
		r.v["faults.new_s"] = s.end(tk).Seconds()
		if err != nil {
			return phase{}, err
		}
	}
	orch, err := fleet.New(c, nil, fleet.Config{
		StepSec: epochSec, ExpectedSessions: spec.sessions, Registry: r.reg, Faults: inj,
	})
	if err != nil {
		return phase{}, err
	}
	submit := r.t.site("fleet.Submit", false)
	tk := submit.begin()
	err = orch.SubmitBatch(persistent)
	submit.end(tk)
	if err != nil {
		return phase{}, err
	}
	start := r.t.site("fleet.Start", true)
	tk = start.begin()
	err = orch.Start(0)
	r.v["fleet.start_s"] = start.end(tk).Seconds()
	if err != nil {
		return phase{}, err
	}

	var sv *serving
	if spec.reqRate > 0 {
		sv, err = r.setupServing(c, orch.Ephemeris(), spec.reqRate, horizonSec, spec.chaos)
		if err != nil {
			return phase{}, err
		}
	}
	var tl *obs.Timeline
	if spec.timeline {
		tl = obs.NewTimeline(r.reg, obs.TimelineConfig{CadenceSec: epochSec})
	}

	step := r.t.site("fleet.Step", true)
	record := r.t.site("obs.MaybeRecord", false)
	export := r.t.site("obs.WriteJSONL", false)
	var reports []fleet.EpochReport
	var epochMs []float64 // host time of each full loop iteration
	var sessionEpochs, sessionsAtEnd int

	measure := func() error {
		next := 0
		for e := 0; e < epochs; e++ {
			iterStart := time.Now()
			r.t.beginIter("epoch", e)
			for next < len(churn) && churn[next].at <= orch.Now() {
				tk := submit.begin()
				err := orch.Submit(churn[next].sess)
				submit.end(tk)
				if !r.op(err) {
					return err
				}
				next++
			}
			tk := step.begin()
			rep, err := orch.Step()
			step.end(tk)
			if !r.op(err) {
				return err
			}
			r.check(rep.Assigned <= rep.Sessions, "epoch %d: assigned %d > sessions %d", e, rep.Assigned, rep.Sessions)
			reports = append(reports, rep)
			sessionEpochs += rep.Sessions
			sessionsAtEnd = rep.Sessions
			if sv != nil {
				sv.advance(orch.Now())
			}
			if tl != nil {
				tk := record.begin()
				tl.MaybeRecord(orch.Now())
				record.end(tk)
			}
			r.t.endIter()
			epochMs = append(epochMs, float64(time.Since(iterStart))/float64(time.Millisecond))
		}
		if tl != nil {
			tk := export.begin()
			n, err := exportTimeline(tl, r.outDir)
			export.end(tk)
			if !r.op(err) {
				return err
			}
			r.v["obs.timeline_export_bytes"] = float64(n)
			r.v["obs.timeline_frames"] = float64(tl.Stats().Frames)
		}
		return nil
	}

	verify := func() {
		var handoffs, rejections int
		for _, rep := range reports {
			handoffs += rep.Handoffs
			rejections += rep.Rejections
			r.hashEpoch(rep)
			if spec.chaos {
				r.v["faults.sat_failures"] += float64(rep.SatFailures)
				r.v["faults.evacuations"] += float64(rep.Evacuations)
				r.v["faults.evacuations_deferred"] += float64(rep.EvacuationsDeferred)
				r.v["faults.migration_failures"] += float64(rep.MigrationFailures)
				r.v["faults.isl_degradations"] += float64(rep.ISLDegradations)
			}
		}
		stepS := step.busy.Seconds()
		r.work = float64(sessionEpochs)
		r.v["session_epochs_per_s"] = float64(sessionEpochs) / stepS
		r.v["epoch_ms_p50"] = quantile(epochMs, 0.50)
		r.v["epoch_ms_p90"] = quantile(epochMs, 0.90)
		r.v["fleet.step_busy_s"] = stepS
		r.v["fleet.step_calls"] = float64(step.calls)
		r.v["fleet.submit_busy_s"] = submit.busy.Seconds()
		r.v["fleet.us_per_session_epoch"] = 1e6 * stepS / float64(sessionEpochs)
		r.v["fleet.step_netgraph_busy_s"] = step.netBusy
		r.v["fleet.step_ephem_busy_s"] = step.ephemBusy
		r.v["fleet.handoffs"] = float64(handoffs)
		r.v["fleet.rejections"] = float64(rejections)
		st := orch.Stats()
		if st.Sessions > 0 {
			r.v["fleet.assigned_frac"] = float64(st.Assigned) / float64(st.Sessions)
		}
		r.v["fleet.handoffs_per_session_hour"] = float64(handoffs) / (float64(sessionsAtEnd) * horizonSec / 3600)
		r.v["fleet.replan_us_p50"] = st.ReplanMs.P50 * 1000
		r.v["fleet.replan_us_p99"] = st.ReplanMs.P99 * 1000
		if tl != nil {
			r.v["obs.timeline_record_busy_s"] = record.busy.Seconds()
			r.v["obs.timeline_export_s"] = export.busy.Seconds()
		}
		if sv != nil {
			sv.verify(r)
		}
	}
	return phase{measure, verify}, nil
}

// hashEpoch folds an EpochReport minus WallSec into the digest.
func (r *run) hashEpoch(rep fleet.EpochReport) {
	r.hashInts(rep.Sessions, rep.Assigned, rep.Expiring, rep.Placements, rep.Handoffs,
		rep.Rejections, rep.Departures, rep.SatFailures, rep.SatRecoveries, rep.DownSats,
		rep.Evacuations, rep.EvacuationsDeferred, rep.MigrationFailures, rep.BackoffDeferrals,
		rep.ISLDegradations, rep.Transfer.N(), rep.Downtime.N())
	r.hashFloats(rep.TSec, rep.MeanUtilization,
		rep.Transfer.Mean(), rep.Transfer.Min(), rep.Transfer.Max(),
		rep.Downtime.Mean(), rep.Downtime.Min(), rep.Downtime.Max())
}

// exportTimeline writes the frames as JSONL into a temp dir under out and
// removes it again; the bytes written are the layer's work count.
func exportTimeline(tl *obs.Timeline, out string) (int64, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(out, "timeline-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(dir + "/timeline.jsonl")
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	err = tl.WriteJSONL(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	var n int64
	if st, serr := f.Stat(); serr == nil {
		n = st.Size()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// ---- the serving layer: serve-heavy, and riding along in flagship-chaos ----

// serving is one engine per built-in policy, all fed the same trace.
type serving struct {
	engines []*serve.Engine
	runs    []*site // RunUntil per policy
	result  *site
	reqs    int
}

func (r *run) setupServing(c *constellation.Constellation, eng *ephem.Engine,
	rate, horizonSec float64, chaos bool) (*serving, error) {
	sites := serve.SitesFromCities(serveSites)
	for _, s := range sites {
		r.grounds = append(r.grounds, s.Loc)
	}
	gen := r.t.site("serve.Generate", false)
	tk := gen.begin()
	reqs, err := serve.Generate(sites, serve.Workload{
		Seed: r.subSeed(seedServe), RatePerSec: rate, ServiceMedianMs: 20, ServiceSigma: 0.5, DiurnalAmplitude: 0.6,
	}, horizonSec)
	r.v["serve.generate_s"] = gen.end(tk).Seconds()
	if err != nil {
		return nil, err
	}
	server := compute.DefaultServerSpec()
	server.Cores = serveCores

	sv := &serving{reqs: len(reqs), result: r.t.site("serve.Result", false)}
	newEngine := r.t.site("serve.NewEngine", true)
	feed := r.t.site("serve.Feed", false)
	for _, p := range serve.Policies() {
		var inj *faults.Injector
		if chaos {
			// Same seed as the fleet's injector: every policy faces the
			// failure schedule the sessions do.
			if inj, err = faults.New(c.Size(), chaosConfig(r.subSeed(seedFaults))); err != nil {
				return nil, err
			}
		}
		tk := newEngine.begin()
		e, err := serve.NewEngine(c, serve.Config{
			Sites: sites, Policy: p, Server: server, QueueCap: serveQueue,
			RefreshSec: epochSec, Registry: r.reg, Faults: inj, Ephem: eng,
		})
		newEngine.end(tk)
		if err != nil {
			return nil, err
		}
		tk = feed.begin()
		err = e.Feed(reqs)
		feed.end(tk)
		if err != nil {
			return nil, err
		}
		sv.engines = append(sv.engines, e)
		sv.runs = append(sv.runs, r.t.site("serve.RunUntil."+p.Name(), true))
	}
	r.v["serve.new_engine_s"] = newEngine.busy.Seconds()
	r.v["serve.feed_s"] = feed.busy.Seconds()
	r.v["serve.requests"] = float64(len(reqs))
	return sv, nil
}

func (sv *serving) advance(tSec float64) {
	for i, e := range sv.engines {
		tk := sv.runs[i].begin()
		e.RunUntil(tSec)
		sv.runs[i].end(tk)
	}
}

// verify checks each policy's accounting, folds its results into the
// digest, and derives the serve metrics. Quantiles sort millions of
// samples, which is why this runs outside the measured phase. It returns
// the requests simulated across policies.
func (sv *serving) verify(r *run) int {
	var runS float64
	var offered, shed, par, ser, workers int
	for i, e := range sv.engines {
		tk := sv.result.begin()
		res := e.Result()
		sv.result.end(tk)
		name := res.Policy
		r.check(res.Offered == res.Served+res.ShedTotal()+res.InFlight,
			"%s: offered %d != served %d + shed %d + in flight %d",
			name, res.Offered, res.Served, res.ShedTotal(), res.InFlight)
		r.check(res.Offered == sv.reqs, "%s: offered %d of %d fed", name, res.Offered, sv.reqs)
		r.hashInts(res.Offered, res.Served, res.InFlight, res.SatsUsed, res.PeakQueued)
		for _, reason := range serve.ShedReasons {
			r.hashInts(res.Shed[reason])
		}
		var p50, p99 float64
		if res.LatencyMs.N() > 0 {
			p50, p99 = res.LatencyMs.Median(), res.LatencyMs.Quantile(0.99)
		}
		r.hashFloats(p50, p99)

		busy := sv.runs[i].busy.Seconds()
		runS += busy
		offered += res.Offered
		shed += res.ShedTotal()
		r.v["serve.run_busy_s."+name] = busy
		r.v["serve.req_per_s."+name] = float64(res.Offered) / busy
		r.v["serve.sim_p50_ms."+name] = p50
		r.v["serve.sim_p99_ms."+name] = p99
		st := e.Stats()
		par += st.ParallelSlices
		ser += st.SerialSlices
		if st.Workers > workers {
			workers = st.Workers
		}
	}
	r.v["requests_per_s"] = float64(offered) / runS
	r.v["serve.parallel_slices"] = float64(par)
	r.v["serve.serial_slices"] = float64(ser)
	r.v["serve.workers"] = float64(workers)
	if offered > 0 {
		r.v["serve.shed_frac"] = float64(shed) / float64(offered)
	}
	return offered
}

func setupServeHeavy(r *run) (phase, error) {
	c, err := r.buildStarlink()
	if err != nil {
		return phase{}, err
	}
	// No orchestrator to borrow an ephemeris from: one engine on the
	// refresh grid, shared by the three policies as cmd/fleetsim shares the
	// fleet's.
	eng := ephem.New(c, ephem.Config{GridStepSec: epochSec, Registry: r.reg})
	steps := r.scaled(heavySteps, 1)
	sv, err := r.setupServing(c, eng, heavyReqPerSec, float64(steps)*epochSec, false)
	if err != nil {
		return phase{}, err
	}
	measure := func() error {
		for i := 1; i <= steps; i++ {
			r.t.beginIter("serve-step", i)
			sv.advance(float64(i) * epochSec)
			r.t.endIter()
		}
		return nil
	}
	return phase{measure, func() { r.work = float64(sv.verify(r)) }}, nil
}

// ---- routing-sweep ----

type sweepQueries struct {
	pairs [][2]int // ground indices, routed both ways
	sssp  [][2]int // source ground index, check satellite
	isl   [][2]int // satellite pairs
}

func setupRoutingSweep(r *run) (phase, error) {
	c, err := r.buildStarlink()
	if err != nil {
		return phase{}, err
	}
	grounds := cities.Locations(cities.TopN(sweepGrounds))
	r.grounds, r.cadenceSec = grounds, sweepCadenceSec
	var covered []int
	for i, g := range grounds {
		if math.Abs(g.LatDeg) <= sweepMaxQueryLat {
			covered = append(covered, i)
		}
	}
	eng := ephem.New(c, ephem.Config{Registry: r.reg})
	net := netgraph.New(c, grounds).UseEphemeris(eng)

	snapshots := r.scaled(sweepSnapshots, sweepColdEvery+1)
	rng := rand.New(rand.NewSource(r.subSeed(seedPairs)))
	distinct := func(n int) [2]int {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		return [2]int{a, b}
	}
	// Satellite IDs are dense shell by shell: shells[i] is shell i's [lo, hi).
	shells := make([][2]int, len(c.Shells))
	for _, sat := range c.Satellites {
		sh := &shells[sat.ShellIndex]
		if sh[1] == 0 {
			sh[0] = sat.ID
		}
		sh[1] = sat.ID + 1
	}
	plan := make([]sweepQueries, snapshots)
	for i := range plan {
		q := &plan[i]
		for k := 0; k < sweepPairs; k++ {
			p := distinct(len(covered))
			q.pairs = append(q.pairs, [2]int{covered[p[0]], covered[p[1]]})
		}
		for k := 0; k < sweepSSSP; k++ {
			q.sssp = append(q.sssp, [2]int{covered[rng.Intn(len(covered))], rng.Intn(c.Size())})
		}
		for k := 0; k < sweepISL; k++ {
			// ISLs stay inside a shell, so both ends come from one.
			sh := shells[c.Satellites[rng.Intn(c.Size())].ShellIndex]
			p := distinct(sh[1] - sh[0])
			q.isl = append(q.isl, [2]int{sh[0] + p[0], sh[0] + p[1]})
		}
	}

	at := r.t.site("netgraph.At", true)
	atAfter := r.t.site("netgraph.AtAfter", true)
	freeze := r.t.site("netgraph.Freeze", false)
	path := r.t.site("netgraph.ShortestPath", false)
	sssp := r.t.site("netgraph.LatencyToAllSatsInto", false)
	islPath := r.t.site("netgraph.ISLPath", false)
	var queries int

	measure := func() error {
		var snap *netgraph.Snapshot
		var row []float64
		route := func(s *netgraph.Snapshot, a, b netgraph.NodeID) (float64, bool) {
			tk := path.begin()
			p, err := s.ShortestPath(a, b)
			path.end(tk)
			queries++
			return p.OneWayMs, r.op(err)
		}
		for i, q := range plan {
			t := float64(i) * sweepCadenceSec
			r.t.beginIter("snapshot", i)
			tk := atAfter.begin()
			snap = net.AtAfter(snap, t)
			atAfter.end(tk)
			tk = freeze.begin()
			snap.Freeze()
			freeze.end(tk)

			for _, p := range q.pairs {
				a, b := net.GroundNode(p[0]), net.GroundNode(p[1])
				ab, ok1 := route(snap, a, b)
				ba, ok2 := route(snap, b, a)
				if !ok1 || !ok2 {
					continue
				}
				r.check(math.Abs(ab-ba) <= 1e-9, "t=%g: path %d->%d %.12g ms != reverse %.12g ms", t, p[0], p[1], ab, ba)
				los := snap.LineOfSightMs(a, b)
				r.check(ab >= los, "t=%g: path %d->%d %.6g ms below line of sight %.6g ms", t, p[0], p[1], ab, los)
				r.hashFloats(ab)
			}
			for _, s := range q.sssp {
				tk := sssp.begin()
				row = snap.LatencyToAllSatsInto(s[0], row)
				sssp.end(tk)
				queries++
				r.op(nil)
				d, ok := route(snap, net.GroundNode(s[0]), net.SatNode(s[1]))
				if !ok {
					continue
				}
				r.check(math.Abs(d-row[s[1]]) <= 1e-9, "t=%g: path %d->sat %d %.12g ms != SSSP row %.12g ms", t, s[0], s[1], d, row[s[1]])
				r.hashFloats(row[s[1]])
			}
			for _, p := range q.isl {
				tk := islPath.begin()
				ip, err := snap.ISLPath(p[0], p[1])
				islPath.end(tk)
				queries++
				if r.op(err) {
					r.hashFloats(ip.OneWayMs)
				}
			}
			if i%sweepColdEvery == 0 {
				// A snapshot off the chain and off the cadence: full scan,
				// no cached frame.
				tk := at.begin()
				cold := net.At(t + sweepCadenceSec/2)
				at.end(tk)
				tk = freeze.begin()
				cold.Freeze()
				freeze.end(tk)
				r.hashInts(len(cold.VisibleSats(q.pairs[0][0])))
			}
			r.t.endIter()
		}
		return nil
	}
	verify := func() {
		r.work = float64(queries)
		r.v["route_queries_per_s"] = float64(queries) / r.wall
	}
	return phase{measure, verify}, nil
}

// ---- paper-handoff ----

func setupPaperHandoff(r *run) (phase, error) {
	// Fig67 builds its own (pooled) constellation, groups and planners
	// inside the measured call; set-up builds the same inputs once more so
	// their cost is visible as set-up and the probes have a constellation.
	if _, err := r.buildStarlink(); err != nil {
		return phase{}, err
	}
	cfg := experiments.Fig67Config{
		Groups:      paperGroups,
		DurationSec: math.Max(paperStepSec*30, paperDurationSec*r.scale),
		StepSec:     paperStepSec,
		Seed:        r.subSeed(seedFig67),
	}
	s := r.t.site("trace.Groups", false)
	tk := s.begin()
	_, err := trace.Groups(trace.GroupConfig{
		Seed: cfg.Seed, Groups: cfg.Groups, MinUsers: 3, MaxUsers: 5, SpreadKm: 600, MaxAbsLatDeg: 52,
	})
	r.v["trace.groups_s"] = s.end(tk).Seconds()
	if err != nil {
		return phase{}, err
	}

	fig67 := r.t.site("experiments.Fig67", true)
	var res experiments.Fig67Result
	measure := func() error {
		tk := fig67.begin()
		var err error
		res, err = experiments.Fig67(cfg)
		fig67.end(tk)
		r.op(err)
		return err
	}
	verify := func() {
		r.check(res.GroupsSimulated > 0, "no group simulated")
		r.hashInts(res.GroupsSimulated, res.HandoffsMinMax, res.HandoffsSticky)
		r.hashFloats(res.MeanRTTMinMax, res.MeanRTTSticky)
		mm6, st6 := res.Fig6Series()
		mm7, st7 := res.Fig7Series()
		for _, series := range [][]float64{mm6.X, mm6.Y, st6.X, st6.Y, mm7.X, mm7.Y, st7.X, st7.Y} {
			r.hashFloats(series...)
		}
		steps := math.Floor(cfg.DurationSec / cfg.StepSec)
		groupSteps := float64(res.GroupsSimulated) * steps * 2
		r.work = groupSteps
		r.v["handoff_steps_per_s"] = groupSteps / fig67.busy.Seconds()
		r.v["experiments.fig67_s"] = fig67.busy.Seconds()
		r.v["meetup.group_steps"] = groupSteps
		r.v["meetup.handoffs_minmax"] = float64(res.HandoffsMinMax)
		r.v["meetup.handoffs_sticky"] = float64(res.HandoffsSticky)
		r.v["meetup.sticky_median_ratio_x"] = res.MedianRatio()
	}
	return phase{measure, verify}, nil
}
