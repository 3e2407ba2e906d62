package main

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// tracer measures the layers from outside: every call the harness makes
// into a layer's public functions goes through a site, which always
// accumulates the call's host time (the end-to-end metrics need Σ Step and
// Σ RunUntil wall on the untraced pass too) and, on the traced pass, also
// records a span under the current loop-iteration span and — for the
// coarse sites that hide other layers (Step, RunUntil, Fig67) — diffs the
// process CPU time and the registries' busy sums around the call.
type tracer struct {
	on    bool
	spans *obs.Tracer
	regs  []*obs.Registry
	iter  *obs.Span
	sites []*site

	// Self-measured cost of the traced pass's registry snapshots.
	snapshotBusy time.Duration
}

func newTracer(on bool, regs ...*obs.Registry) *tracer {
	t := &tracer{on: on, regs: regs}
	if on {
		t.spans = obs.NewTracer(nil)
		t.spans.SetLimit(1 << 20)
	}
	return t
}

// site is one instrumented entry point, named layer.Call.
type site struct {
	t     *tracer
	name  string
	deep  bool // diff CPU time and the registries around each call (traced pass)
	busy  time.Duration
	calls int
	// Traced pass: the CPU seconds of the site's calls (their wall time on
	// a shallow site, which makes one serial call), and the busy time the
	// registries attribute to ephem / netgraph inside them. Histogram sums
	// add across workers the way CPU time does, so CPU is what they are
	// compared with.
	cpu, ephemBusy, netBusy float64

	// phase is what the site did inside the measured phase; mark is where
	// its totals stood when the phase began.
	phase, mark siteTotals
}

// siteTotals is a site's CPU time and that time net of the nested ephem
// and netgraph busy time.
type siteTotals struct{ cpu, self float64 }

func (s *site) totals() siteTotals {
	return siteTotals{s.cpu, s.cpu - s.ephemBusy - s.netBusy}
}

// startPhase and endPhase bracket the measured phase, so the layer table
// leaves out what the same sites did during set-up.
func (t *tracer) startPhase() {
	for _, s := range t.sites {
		s.mark = s.totals()
	}
}

func (t *tracer) endPhase() {
	for _, s := range t.sites {
		now := s.totals()
		s.phase = siteTotals{now.cpu - s.mark.cpu, max(0, now.self-s.mark.self)}
	}
}

func (t *tracer) site(name string, deep bool) *site {
	s := &site{t: t, name: name, deep: deep}
	t.sites = append(t.sites, s)
	return s
}

type token struct {
	start  time.Time
	span   *obs.Span
	before flat
	cpu    float64
}

func (s *site) begin() token {
	var tk token
	if s.t.on {
		if s.deep {
			tk.before = s.t.snapshot()
			tk.cpu = cpuSeconds()
		}
		if s.t.iter != nil {
			tk.span = s.t.iter.Child(s.name)
		} else {
			tk.span = s.t.spans.Start(s.name)
		}
	}
	tk.start = time.Now()
	return tk
}

func (s *site) end(tk token) time.Duration {
	d := time.Since(tk.start)
	s.busy += d
	s.calls++
	tk.span.End()
	if tk.before == nil {
		s.cpu += d.Seconds()
	} else {
		s.cpu += cpuSeconds() - tk.cpu
		delta := s.t.snapshot().sub(tk.before)
		s.ephemBusy += delta.ephemBusy()
		s.netBusy += delta.netgraphBusy()
	}
	return d
}

// beginIter opens the span every site call nests under until endIter: one
// per epoch, serve step, or routing snapshot.
func (t *tracer) beginIter(name string, i int) {
	if !t.on {
		return
	}
	t.iter = t.spans.Start(name)
	t.iter.SetAttr("iter", strconv.Itoa(i))
}

func (t *tracer) endIter() {
	t.iter.End()
	t.iter = nil
}

// flat is a registry snapshot flattened to series → value: counters and
// gauges by value, histograms and quantile sketches by sum, with the
// observation count under the series name + "#n". Series of several
// registries add up.
type flat map[string]float64

func (t *tracer) snapshot() flat {
	start := time.Now()
	f := flatten(t.regs...)
	t.snapshotBusy += time.Since(start)
	return f
}

func flatten(regs ...*obs.Registry) flat {
	out := flat{}
	for _, reg := range regs {
		for _, fam := range reg.Snapshot() {
			for _, s := range fam.Samples {
				key := seriesKey(fam.Name, s.Labels)
				out[key] += s.Value
				if fam.Kind == obs.KindHistogram || fam.Kind == obs.KindQuantile {
					out[key+"#n"] += float64(s.Count)
				}
			}
		}
	}
	return out
}

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func (f flat) sub(before flat) flat {
	out := make(flat, len(f))
	for k, v := range f {
		out[k] = v - before[k]
	}
	return out
}

func (f flat) ephemBusy() float64 { return f["ephem_propagate_seconds"] }

func (f flat) freezeBusy() float64 { return f["netgraph_freeze_seconds"] }

func (f flat) queryBusy(kind string) float64 {
	return f["netgraph_query_seconds{kind="+kind+"}"]
}

// netgraphBusy sums freeze and query time. A query that triggers its
// snapshot's lazy freeze counts that freeze twice, so this is an upper
// bound wherever the caller does not Freeze explicitly.
func (f flat) netgraphBusy() float64 {
	return f.freezeBusy() + f.queryBusy("path") + f.queryBusy("sssp") + f.queryBusy("isl")
}
