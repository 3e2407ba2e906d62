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

// Validate reports whether the workload is usable.
func (w Workload) Validate() error {
	if w.RatePerSec <= 0 {
		return fmt.Errorf("serve: arrival rate %v must be positive", w.RatePerSec)
	}
	if w.ServiceMedianMs <= 0 {
		return fmt.Errorf("serve: service median %v ms must be positive", w.ServiceMedianMs)
	}
	if w.ServiceSigma < 0 {
		return fmt.Errorf("serve: service sigma %v must be non-negative", w.ServiceSigma)
	}
	if w.DiurnalAmplitude < 0 || w.DiurnalAmplitude >= 1 {
		return fmt.Errorf("serve: diurnal amplitude %v outside [0,1)", w.DiurnalAmplitude)
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
}

// advance draws the stream's next arrival into s.next; false once the
// stream has run past the horizon. Thinning: step a homogeneous process at
// the diurnal peak rate and keep each point with probability rate(t)/peak.
func (s *siteStream) advance(w *Workload, horizonSec float64) bool {
	for {
		s.t += s.r.ExpFloat64() / s.peak
		if s.t >= horizonSec {
			return false
		}
		keep := diurnalFactor(s.t, s.lon, w.DiurnalAmplitude, w.PeakLocalHour) / (1 + w.DiurnalAmplitude)
		if s.r.Float64() >= keep {
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
type Generator struct {
	w          Workload
	horizonSec float64
	heap       []*siteStream // min-heap on (next.TSec, next.Site)
	expected   float64       // mean request count, from the rate integral
	run        []Request     // Next's buffer, reused across calls
}

// NewGenerator validates the workload and primes every site's stream.
func NewGenerator(sites []Site, w Workload, horizonSec float64) (*Generator, error) {
	w = w.withDefaults()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("serve: no sites")
	}
	if horizonSec <= 0 {
		return nil, fmt.Errorf("serve: horizon %v must be positive", horizonSec)
	}
	totalW := 0.0
	for i, s := range sites {
		if s.Weight < 0 {
			return nil, fmt.Errorf("serve: site %d (%s) has negative weight", i, s.Name)
		}
		totalW += s.Weight
	}
	if totalW <= 0 {
		return nil, fmt.Errorf("serve: all site weights are zero")
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
		st := &siteStream{
			r:    rand.New(rand.NewSource(w.Seed*1_000_003 + int64(si))),
			lon:  s.Loc.LonDeg,
			peak: rate * (1 + w.DiurnalAmplitude),
			next: Request{Site: si},
		}
		if st.advance(&g.w, horizonSec) {
			g.heap = append(g.heap, st)
		}
	}
	for i := len(g.heap)/2 - 1; i >= 0; i-- {
		g.siftDown(i)
	}
	return g, nil
}

// siftDown restores the heap below i. Within a site arrival times only
// grow, so (TSec, Site) orders the merged trace totally.
func (g *Generator) siftDown(i int) {
	h := g.heap
	for {
		m := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			a, b := &h[c].next, &h[m].next
			if a.TSec < b.TSec || (a.TSec == b.TSec && a.Site < b.Site) {
				m = c
			}
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pop returns the trace's next request; false once every stream has ended.
func (g *Generator) pop() (Request, bool) {
	if len(g.heap) == 0 {
		return Request{}, false
	}
	top := g.heap[0]
	r := top.next
	if !top.advance(&g.w, g.horizonSec) {
		n := len(g.heap) - 1
		g.heap[0] = g.heap[n]
		g.heap = g.heap[:n]
	}
	g.siftDown(0)
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
