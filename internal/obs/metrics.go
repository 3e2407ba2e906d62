// Package obs is the repo's stdlib-only observability layer: a metrics
// registry (labelled counters, gauges, and log-bucketed streaming-quantile
// sketches — the one distribution type — with lock-cheap atomic updates and
// Prometheus-text/JSON exposition), a span tracer with an injectable clock
// (so simulated time can drive spans deterministically) and a bounded
// finished-span ring, a flight recorder (Timeline: per-cadence samples of
// every family into a bounded ring, exportable as JSONL/CSV/HTML) with SLO
// evaluation on top, and the debug HTTP surface (/metrics, /healthz,
// /timeline, /slo, expvar, pprof) that cmd/meetupd and cmd/fleetsim mount
// behind -debug.
//
// Design notes: metric families are registered once (re-registration with
// identical kind and label names returns the existing family; a mismatch
// panics — it is a programming error on par with redeclaring a variable).
// Hot paths hold the concrete *Counter/*Gauge/*Quantile and update it with
// a few atomic ops; label resolution (With) costs one RLock map hit and
// should be hoisted out of loops.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind names a metric family type.
type Kind string

// The metric family kinds.
const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
	// KindQuantile is a streaming-quantile sketch (see quantile.go); it is
	// exposed in the Prometheus text format as a summary.
	KindQuantile Kind = "quantile"
	// KindHistogram is what is left of the deleted fixed-bucket histogram:
	// no family has this kind. It remains only because bench/trace.go
	// compiles against it, and it leaves with the next benchmark PR.
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// labelKey joins label values with a separator that cannot appear in them
// unescaped ambiguity-free (0xff is invalid UTF-8, fine for a map key).
func labelKey(values []string) string { return strings.Join(values, "\xff") }

type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu       sync.RWMutex
	children map[string]any      // labelKey -> *Counter | *Gauge | *Quantile
	values   map[string][]string // labelKey -> label values
}

func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = make()
	f.children[key] = c
	f.values[key] = append([]string(nil), values...)
	return c
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	hookMu        sync.Mutex
	scrapeHooks   []func()
	runtimeHooked bool
}

// OnScrape registers f to run before every HTTP scrape of the registry
// (ServeHTTP), letting pull-style collectors refresh gauges lazily instead
// of relying on callers to poll. Hooks do not run for direct Snapshot
// calls, so high-frequency samplers (the Timeline) skip their cost.
func (r *Registry) OnScrape(f func()) {
	r.hookMu.Lock()
	r.scrapeHooks = append(r.scrapeHooks, f)
	r.hookMu.Unlock()
}

func (r *Registry) runScrapeHooks() {
	r.hookMu.Lock()
	hooks := append([]func(){}, r.scrapeHooks...)
	r.hookMu.Unlock()
	for _, f := range hooks {
		f()
	}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry shared by instrumented packages.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

func (r *Registry) register(name, help string, kind Kind, labels []string) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || labelKey(f.labels) != labelKey(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v", name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		children: map[string]any{},
		values:   map[string][]string{},
	}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labels)}
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labels)}
}

// Sample is one labelled series in a snapshot.
type Sample struct {
	Labels    map[string]string `json:"labels,omitempty"`
	Value     float64           `json:"value"`               // counter/gauge value; quantile sum
	Count     uint64            `json:"count,omitempty"`     // quantile only
	Quantiles []QuantilePoint   `json:"quantiles,omitempty"` // quantile only, ExportQuantiles estimates
}

// FamilySnapshot is the point-in-time state of one metric family.
type FamilySnapshot struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Kind    Kind     `json:"kind"`
	Samples []Sample `json:"samples"`
}

// Snapshot returns all families sorted by name, samples sorted by label key.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := Sample{}
			if len(f.labels) > 0 {
				s.Labels = map[string]string{}
				for i, lv := range f.values[k] {
					s.Labels[f.labels[i]] = lv
				}
			}
			switch m := f.children[k].(type) {
			case *Counter:
				s.Value = float64(m.Value())
			case *Gauge:
				s.Value = m.Value()
			case *Quantile:
				s.Value = m.Sum()
				s.Count = m.Count()
				s.Quantiles = m.snapshotQuantiles()
			}
			fs.Samples = append(fs.Samples, s)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}

// WriteJSON writes the snapshot as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, fam := range r.Snapshot() {
		if fam.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help))
		}
		kind := string(fam.Kind)
		if fam.Kind == KindQuantile {
			kind = "summary" // the Prometheus type quantile families map onto
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.Name, kind)
		for _, s := range fam.Samples {
			switch fam.Kind {
			case KindQuantile:
				for _, qp := range s.Quantiles {
					fmt.Fprintf(&b, "%s%s %s\n", fam.Name, labelString(s.Labels, "quantile", formatValue(qp.P)), formatValue(qp.Value))
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", fam.Name, labelString(s.Labels, "", ""), formatValue(s.Value))
				fmt.Fprintf(&b, "%s_count%s %d\n", fam.Name, labelString(s.Labels, "", ""), s.Count)
			default:
				fmt.Fprintf(&b, "%s%s %s\n", fam.Name, labelString(s.Labels, "", ""), formatValue(s.Value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// labelString renders {k="v",...} with labels sorted, optionally appending
// one extra pair (used for the summary "quantile" label).
func labelString(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	// %q escapes backslash, quote, and newline — the three characters the
	// Prometheus text format requires escaped in label values.
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

var helpEscaper = strings.NewReplacer("\\", "\\\\", "\n", "\\n")

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
