package serve

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cities"
	"repro/internal/geo"
)

// Site is one request-originating ground location.
type Site struct {
	// Name labels the site in traces and reports.
	Name string
	// Loc is the site's location; ECEF its surface vector.
	Loc  geo.LatLon
	ECEF geo.Vec3
	// Weight is the site's share of the aggregate arrival rate (any
	// positive scale; the generator normalises).
	Weight float64
}

// SitesFromCities builds request sites at the n largest population centers,
// weighted by metro population — the same city list behind Figures 4/5, so
// the request load lands where the paper's users are.
func SitesFromCities(n int) []Site {
	cs := cities.TopN(n)
	out := make([]Site, len(cs))
	for i, c := range cs {
		out[i] = Site{
			Name:   c.Name,
			Loc:    c.Loc,
			ECEF:   c.Loc.ECEF(),
			Weight: float64(c.Population),
		}
	}
	return out
}

// Workload describes the synthetic request stream over a set of sites.
// Arrivals are a per-site Poisson process modulated by a diurnal curve in
// local solar time; service times are log-normal (heavy-tailed, like real
// request mixes). Everything is drawn from Seed: the same (sites, workload,
// horizon) triple reproduces the same request trace bit-for-bit.
type Workload struct {
	// Seed fixes every draw.
	Seed int64
	// RatePerSec is the aggregate mean arrival rate across all sites
	// (site i receives the Weight-proportional share).
	RatePerSec float64
	// ServiceMedianMs is the log-normal median service time on one core.
	ServiceMedianMs float64
	// ServiceSigma is the log-normal shape (default 0.5; larger = heavier
	// tail).
	ServiceSigma float64
	// DiurnalAmplitude in [0,1) swings each site's rate by ±amplitude
	// around its mean over the local solar day (0 = flat). The mean rate
	// is preserved.
	DiurnalAmplitude float64
	// PeakLocalHour is the local solar hour of peak demand (default 20,
	// the evening peak of interactive services).
	PeakLocalHour float64
}

func (w Workload) withDefaults() Workload {
	if w.ServiceSigma == 0 {
		w.ServiceSigma = 0.5
	}
	if w.PeakLocalHour == 0 {
		w.PeakLocalHour = 20
	}
	return w
}

// Validate reports whether the workload is usable. Every field must be
// finite: a NaN or infinite rate would stall the generator's clock. The
// negated comparisons also catch NaN.
func (w Workload) Validate() error {
	if !(w.RatePerSec > 0) || math.IsInf(w.RatePerSec, 1) {
		return fmt.Errorf("serve: arrival rate %v must be finite and positive", w.RatePerSec)
	}
	if !(w.ServiceMedianMs > 0) || math.IsInf(w.ServiceMedianMs, 1) {
		return fmt.Errorf("serve: service median %v ms must be finite and positive", w.ServiceMedianMs)
	}
	if !(w.ServiceSigma >= 0) || math.IsInf(w.ServiceSigma, 1) {
		return fmt.Errorf("serve: service sigma %v must be finite and non-negative", w.ServiceSigma)
	}
	if !(w.DiurnalAmplitude >= 0 && w.DiurnalAmplitude < 1) {
		return fmt.Errorf("serve: diurnal amplitude %v outside [0,1)", w.DiurnalAmplitude)
	}
	if math.IsNaN(w.PeakLocalHour) || math.IsInf(w.PeakLocalHour, 0) {
		return fmt.Errorf("serve: peak local hour %v must be finite", w.PeakLocalHour)
	}
	return nil
}

// Request is one request in a workload trace: arrival time, originating
// site index, and the CPU time it needs on one core.
type Request struct {
	TSec      float64 `json:"t_sec"`
	Site      int     `json:"site"`
	ServiceMs float64 `json:"service_ms"`
}

// localHour returns the local solar hour of day at a longitude.
func localHour(tSec, lonDeg float64) float64 {
	h := math.Mod(tSec/3600+lonDeg/15, 24)
	if h < 0 {
		h += 24
	}
	return h
}

// diurnalFactor is the rate multiplier at time t for a site: 1 ±
// amplitude on a cosine over the local solar day, peaking at peakHour.
func diurnalFactor(tSec, lonDeg, amplitude, peakHour float64) float64 {
	if amplitude == 0 {
		return 1
	}
	phase := 2 * math.Pi * (localHour(tSec, lonDeg) - peakHour) / 24
	return 1 + amplitude*math.Cos(phase)
}

// siteStream is one site's thinned-Poisson arrival stream. Each has its own
// deterministic sub-seed and draw order, so adding or reordering sites never
// perturbs another site's draws.
type siteStream struct {
	r    *rand.Rand
	lon  float64
	peak float64 // rate of the homogeneous process the thinning draws from
	t    float64 // that process's clock
	next Request // the stream's next kept arrival

	// The keep envelope: kLo <= keep(t) <= kHi for every t before segEnd.
	kLo, kHi, segEnd float64
	evals            int // diurnalFactor calls, read by BenchmarkGenerate's gated curve-evals/request
}

// thinSegSec is the span of the thinning clock one keep envelope covers.
// The curve moves under 0.2 % a minute, so a draw lands in the band the
// envelope leaves undecided about 1 time in 600.
const thinSegSec = 60

// keep is the exact keep probability at t, rate(t)/peak.
func (s *siteStream) keep(w *Workload, t float64) float64 {
	s.evals++
	return diurnalFactor(t, s.lon, w.DiurnalAmplitude, w.PeakLocalHour) / (1 + w.DiurnalAmplitude)
}

// envelope bounds keep over [s.t, s.t+thinSegSec) from one curve evaluation
// at the segment's midpoint. The exact curve (1 + a cos(ωt + φ))/(1 + a)
// moves at most a·ω/(1+a) per second, so it stays within that slope times
// half a segment of its midpoint value. The computed curve adds rounding in
// localHour, the phase, Cos and the division: a few ulps of the phase's
// inputs, under 1e-15·(X + 100) with X = |t|/3600 + |lon|/15 + 2|peakHour|.
// The margin, 1e-12·(X + 64), covers that at the midpoint and at the tested
// point over a hundred times, so the envelope never decides a draw the
// curve would decide the other way.
func (s *siteStream) envelope(w *Workload) {
	const omega = 2 * math.Pi / 86400 // the diurnal curve's angular rate
	a := w.DiurnalAmplitude
	t0 := s.t
	mid := s.keep(w, t0+thinSegSec/2)
	x := (math.Abs(t0)+thinSegSec)/3600 + math.Abs(s.lon)/15 + 2*math.Abs(w.PeakLocalHour)
	slack := a*omega/(1+a)*thinSegSec/2 + 1e-12*(x+64)
	s.kLo, s.kHi = mid-slack, mid+slack
	s.segEnd = t0 + thinSegSec
}

// advance draws the stream's next arrival into s.next; false once the
// stream has run past the horizon. Thinning: step a homogeneous process at
// the diurnal peak rate and keep each point with probability rate(t)/peak.
// The draws and every keep decision are those of the exact test; the
// envelope only spares the curve for draws outside [kLo, kHi).
func (s *siteStream) advance(w *Workload, horizonSec float64) bool {
	for {
		s.t += s.r.ExpFloat64() / s.peak
		if s.t >= horizonSec {
			return false
		}
		if s.t >= s.segEnd {
			s.envelope(w)
		}
		// Kept iff u < keep(t). Written so that NaN bounds fall through to
		// the exact test.
		if u := s.r.Float64(); !(u < s.kLo) && (u >= s.kHi || u >= s.keep(w, s.t)) {
			continue
		}
		s.next.TSec = s.t
		s.next.ServiceMs = w.ServiceMedianMs * math.Exp(s.r.NormFloat64()*w.ServiceSigma)
		return true
	}
}

// generatorRun is how many requests one Generator.Next call yields at most:
// large enough to amortise the call, small enough that a streamed hour
// holds kilobytes of arrivals, not the trace.
const generatorRun = 1024

// Generator streams the request trace of a workload over [0, horizonSec) in
// time order (ties broken by site): a k-way merge of the per-site streams,
// holding one pending arrival per site. It is a Source, so an engine can
// pull from it directly; two generators built from the same arguments yield
// the same trace, bit for bit, however their pulls interleave.
//
// The merge is a loser tree over the streams in site order. Leaf i, stream
// i, sits at node len(streams)+i, and node j's children are 2j and 2j+1;
// tree[j] for j > 0 holds the loser of the match at node j and tree[0] the
// overall winner, each with its next arrival time (+Inf once its stream has
// ended) inline. A pop replays the winner's path: one match per level.
type Generator struct {
	w          Workload
	horizonSec float64
	streams    []siteStream
	tree       []mergeNode
	expected   float64   // mean request count, from the rate integral
	run        []Request // Next's buffer, reused across calls
}

// mergeNode is one entry of the loser tree: a stream and its next arrival.
type mergeNode struct {
	t    float64
	leaf int32
}

// before orders entries by (next arrival, site): within a site arrival
// times only grow, and leaves are in site order, so this orders the merged
// trace totally.
func (a mergeNode) before(b mergeNode) bool {
	return a.t < b.t || (a.t == b.t && a.leaf < b.leaf)
}

// NewGenerator validates the workload and primes every site's stream.
func NewGenerator(sites []Site, w Workload, horizonSec float64) (*Generator, error) {
	w = w.withDefaults()
	totalW, err := checkTrace(sites, w, horizonSec)
	if err != nil {
		return nil, err
	}
	g := &Generator{w: w, horizonSec: horizonSec}
	const omega = 2 * math.Pi / 86400 // the diurnal curve's angular rate
	for si, s := range sites {
		rate := w.RatePerSec * s.Weight / totalW
		if rate == 0 {
			continue
		}
		// The diurnal curve is 1 + A cos(omega t + phi0) in the site's local
		// solar time, so its integral over the horizon is closed-form.
		phi0 := 2 * math.Pi * (s.Loc.LonDeg/15 - w.PeakLocalHour) / 24
		g.expected += rate * (horizonSec +
			w.DiurnalAmplitude*(math.Sin(omega*horizonSec+phi0)-math.Sin(phi0))/omega)
		st := siteStream{
			r:    rand.New(rand.NewSource(w.Seed*1_000_003 + int64(si))),
			lon:  s.Loc.LonDeg,
			peak: rate * (1 + w.DiurnalAmplitude),
			next: Request{Site: si},
		}
		g.streams = append(g.streams, st)
	}
	g.build()
	return g, nil
}

// checkTrace validates NewGenerator's arguments, w with its defaults, and
// returns the sites' total weight. It draws nothing, so a bad value fails
// here instead of stalling a stream's clock.
func checkTrace(sites []Site, w Workload, horizonSec float64) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if len(sites) == 0 {
		return 0, fmt.Errorf("serve: no sites")
	}
	if !(horizonSec > 0) || math.IsInf(horizonSec, 1) {
		return 0, fmt.Errorf("serve: horizon %v must be finite and positive", horizonSec)
	}
	totalW := 0.0
	for i, s := range sites {
		if !(s.Weight >= 0) || math.IsInf(s.Weight, 1) {
			return 0, fmt.Errorf("serve: site %d (%s) weight %v must be finite and non-negative", i, s.Name, s.Weight)
		}
		if math.IsNaN(s.Loc.LonDeg) || math.IsInf(s.Loc.LonDeg, 0) {
			return 0, fmt.Errorf("serve: site %d (%s) longitude %v must be finite", i, s.Name, s.Loc.LonDeg)
		}
		totalW += s.Weight
	}
	if !(totalW > 0) || math.IsInf(totalW, 1) {
		return 0, fmt.Errorf("serve: site weights sum to %v, want a finite positive total", totalW)
	}
	return totalW, nil
}

// build primes every stream and plays every match bottom-up, holding each
// node's winner in scratch.
func (g *Generator) build() {
	n := len(g.streams)
	g.tree = make([]mergeNode, n)
	if n == 0 {
		return
	}
	win := make([]mergeNode, 2*n)
	for i := range g.streams {
		win[n+i] = g.draw(int32(i))
	}
	for j := n - 1; j > 0; j-- {
		a, b := win[2*j], win[2*j+1]
		if b.before(a) {
			a, b = b, a
		}
		win[j], g.tree[j] = a, b
	}
	g.tree[0] = win[1]
}

// draw advances stream i to its next arrival and returns its tree entry.
func (g *Generator) draw(i int32) mergeNode {
	st := &g.streams[i]
	if !st.advance(&g.w, g.horizonSec) {
		return mergeNode{t: math.Inf(1), leaf: i}
	}
	return mergeNode{t: st.next.TSec, leaf: i}
}

// pop returns the trace's next request; false once every stream has ended.
func (g *Generator) pop() (Request, bool) {
	if len(g.tree) == 0 || math.IsInf(g.tree[0].t, 1) {
		return Request{}, false
	}
	i := g.tree[0].leaf
	r := g.streams[i].next
	w := g.draw(i)
	for j := (int(i) + len(g.tree)) >> 1; j > 0; j >>= 1 {
		if l := g.tree[j]; l.before(w) {
			g.tree[j], w = w, l
		}
	}
	g.tree[0] = w
	return r, true
}

// Next returns the next run of requests, empty once the trace has ended.
// The run is valid until the following call.
func (g *Generator) Next() []Request {
	if g.run == nil {
		g.run = make([]Request, generatorRun)
	}
	n := 0
	for ; n < len(g.run); n++ {
		r, ok := g.pop()
		if !ok {
			break
		}
		g.run[n] = r
	}
	return g.run[:n]
}

// sizeHint is a capacity that holds the whole trace in all but a
// six-sigma draw: the Poisson mean plus 6 standard deviations.
func (g *Generator) sizeHint() int {
	return int(math.Ceil(g.expected + 6*math.Sqrt(g.expected)))
}

// drain collects what is left of the trace into one slice of the given
// starting capacity (append grows it if the hint was short).
func (g *Generator) drain(capHint int) []Request {
	out := make([]Request, 0, capHint)
	for r, ok := g.pop(); ok; r, ok = g.pop() {
		out = append(out, r)
	}
	return out
}

// Generate draws the request trace for the workload over [0, horizonSec):
// per-site thinned Poisson arrivals under the diurnal curve, log-normal
// service times, merged in time order (ties broken by site). The trace is
// deterministic in (sites, w, horizonSec). It is a Generator drained into
// one slice; stream the Generator instead when the trace need not be held.
func Generate(sites []Site, w Workload, horizonSec float64) ([]Request, error) {
	g, err := NewGenerator(sites, w, horizonSec)
	if err != nil {
		return nil, err
	}
	return g.drain(g.sizeHint()), nil
}
