package obs

// The flight recorder. A Timeline samples every family of a Registry at a
// fixed simulated-time cadence into a bounded in-memory ring: counters are
// stored as per-interval deltas (and rates), gauges as levels, quantile
// sketches as count and sum deltas plus their current p50..p99 estimates.
// The result is a time-resolved record of a multi-hour run — when hand-off
// latency spiked, whether p99 stayed inside budget during a chaos window —
// exportable as JSONL, CSV, and a self-contained HTML report, and servable
// live from the /timeline debug endpoint.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// TimelineConfig tunes the recorder. The zero value picks the defaults
// noted on each field.
type TimelineConfig struct {
	// CadenceSec is the minimum simulated-time spacing MaybeRecord enforces
	// between frames (default 60). Record ignores it.
	CadenceSec float64
	// Capacity bounds the ring in frames (default 4096). Once full, each
	// new frame evicts the oldest and Dropped grows.
	Capacity int
}

// DefaultTimelineCapacity bounds the frame ring unless overridden.
const DefaultTimelineCapacity = 4096

// Timeline records registry snapshots over (simulated) time. Safe for
// concurrent use: a run loop can Record while an HTTP handler exports.
type Timeline struct {
	reg *Registry
	cfg TimelineConfig

	mu      sync.Mutex
	ring    []Frame // circular; oldest at head once len == Capacity
	head    int
	dropped uint64
	lastT   float64
	started bool
	// prev holds the last cumulative value per series+field so counters
	// and sketch counts/sums can be emitted as deltas.
	prevScalar map[string]float64
	prevCount  map[string]uint64
}

// Frame is one timeline sample: every series of the registry at one
// instant, monotonic families already converted to per-interval deltas.
type Frame struct {
	// TSec is the (simulated) timestamp of the frame; DtSec the spacing to
	// the previous frame (0 on the first, where all deltas are cumulative
	// since process start).
	TSec   float64 `json:"t_sec"`
	DtSec  float64 `json:"dt_sec"`
	Points []Point `json:"points"`
}

// Point is one series inside a Frame.
type Point struct {
	Name   string            `json:"name"`
	Kind   Kind              `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the gauge level, the counter increment over the interval,
	// or the quantile observation-count increment.
	Value float64 `json:"value"`
	// Rate is Value per simulated second (0 on the first frame).
	Rate float64 `json:"rate,omitempty"`
	// Sum is the quantile sum increment over the interval.
	Sum float64 `json:"sum,omitempty"`
	// Quantiles are the sketch's current estimates (not deltas: a
	// streaming quantile summarises everything observed so far).
	Quantiles []QuantilePoint `json:"quantiles,omitempty"`
}

// NewTimeline builds a recorder over reg.
func NewTimeline(reg *Registry, cfg TimelineConfig) *Timeline {
	if cfg.CadenceSec <= 0 {
		cfg.CadenceSec = 60
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultTimelineCapacity
	}
	return &Timeline{
		reg:        reg,
		cfg:        cfg,
		prevScalar: map[string]float64{},
		prevCount:  map[string]uint64{},
	}
}

// Cadence returns the configured sampling cadence in simulated seconds.
func (tl *Timeline) Cadence() float64 { return tl.cfg.CadenceSec }

// MaybeRecord samples the registry iff at least one cadence interval has
// passed since the last frame (or none exists yet). Returns whether a
// frame was recorded. Call it every epoch; it self-paces.
func (tl *Timeline) MaybeRecord(tSec float64) bool {
	tl.mu.Lock()
	due := !tl.started || tSec-tl.lastT >= tl.cfg.CadenceSec
	tl.mu.Unlock()
	if !due {
		return false
	}
	tl.Record(tSec)
	return true
}

// Record unconditionally samples the registry into a new frame at tSec.
func (tl *Timeline) Record(tSec float64) {
	snap := tl.reg.Snapshot() // outside the lock: Snapshot takes registry locks
	tl.mu.Lock()
	defer tl.mu.Unlock()

	dt := 0.0
	if tl.started {
		dt = tSec - tl.lastT
	}
	fr := Frame{TSec: tSec, DtSec: dt}
	for _, fam := range snap {
		for _, s := range fam.Samples {
			key := fam.Name + "\xff" + labelKey(sortedLabelValues(s.Labels))
			p := Point{Name: fam.Name, Kind: fam.Kind, Labels: s.Labels}
			switch fam.Kind {
			case KindGauge:
				p.Value = s.Value
			case KindCounter:
				p.Value = s.Value - tl.prevScalar[key]
				tl.prevScalar[key] = s.Value
			case KindQuantile:
				p.Value = float64(s.Count - tl.prevCount[key])
				tl.prevCount[key] = s.Count
				p.Sum = s.Value - tl.prevScalar[key]
				tl.prevScalar[key] = s.Value
				p.Quantiles = s.Quantiles
			}
			if dt > 0 && fam.Kind != KindGauge {
				p.Rate = p.Value / dt
			}
			fr.Points = append(fr.Points, p)
		}
	}

	if len(tl.ring) < tl.cfg.Capacity {
		tl.ring = append(tl.ring, fr)
	} else {
		tl.ring[tl.head] = fr
		tl.head = (tl.head + 1) % len(tl.ring)
		tl.dropped++
	}
	tl.lastT = tSec
	tl.started = true
}

func sortedLabelValues(labels map[string]string) []string {
	if len(labels) == 0 {
		return nil
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		out = append(out, k, labels[k])
	}
	return out
}

// Frames returns a copy of the recorded frames, oldest first.
func (tl *Timeline) Frames() []Frame {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make([]Frame, 0, len(tl.ring))
	out = append(out, tl.ring[tl.head:]...)
	out = append(out, tl.ring[:tl.head]...)
	return out
}

// TimelineStats summarises ring occupancy — the bounded-memory story a
// long-run report should print.
type TimelineStats struct {
	Frames   int     `json:"frames"`
	Capacity int     `json:"capacity"`
	Dropped  uint64  `json:"dropped"`
	OldestT  float64 `json:"oldest_t_sec"`
	NewestT  float64 `json:"newest_t_sec"`
}

// Stats returns the recorder's ring occupancy.
func (tl *Timeline) Stats() TimelineStats {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	st := TimelineStats{Frames: len(tl.ring), Capacity: tl.cfg.Capacity, Dropped: tl.dropped}
	if len(tl.ring) > 0 {
		st.OldestT = tl.ring[tl.head].TSec
		st.NewestT = tl.ring[(tl.head+len(tl.ring)-1)%len(tl.ring)].TSec
	}
	return st
}

// WriteJSONL writes the frames one JSON document per line — the canonical
// export cmd/obsreport reads back.
func (tl *Timeline) WriteJSONL(w io.Writer) error { return WriteFramesJSONL(w, tl.Frames()) }

// WriteCSV writes the frames in long form (t_sec,name,labels,field,value).
func (tl *Timeline) WriteCSV(w io.Writer) error { return WriteFramesCSV(w, tl.Frames()) }

// WriteHTML renders the self-contained HTML timeline report.
func (tl *Timeline) WriteHTML(w io.Writer, title string) error {
	return WriteFramesHTML(w, title, tl.Frames())
}

// WriteFramesJSONL writes frames one JSON document per line.
func WriteFramesJSONL(w io.Writer, frames []Frame) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, fr := range frames {
		if err := enc.Encode(fr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFramesJSONL parses a JSONL timeline export, tolerating blank lines.
func ReadFramesJSONL(r io.Reader) ([]Frame, error) {
	var out []Frame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var fr Frame
		if err := json.Unmarshal([]byte(line), &fr); err != nil {
			return nil, fmt.Errorf("obs: bad timeline line %q: %w", truncate(line, 80), err)
		}
		// The writer omits empty labels and quantiles, so read them as
		// absent: a parse then survives a write and re-read unchanged.
		for i := range fr.Points {
			p := &fr.Points[i]
			if len(p.Labels) == 0 {
				p.Labels = nil
			}
			if len(p.Quantiles) == 0 {
				p.Quantiles = nil
			}
		}
		out = append(out, fr)
	}
	return out, sc.Err()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// WriteFramesCSV writes frames in long form: one row per series field per
// frame, so any spreadsheet or pandas one-liner can pivot it.
func WriteFramesCSV(w io.Writer, frames []Frame) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t_sec,name,labels,field,value"); err != nil {
		return err
	}
	for _, fr := range frames {
		for _, p := range fr.Points {
			ls := csvLabels(p.Labels)
			row := func(field string, v float64) {
				fmt.Fprintf(bw, "%g,%s,%s,%s,%g\n", fr.TSec, p.Name, ls, field, v)
			}
			switch p.Kind {
			case KindGauge:
				row("value", p.Value)
			case KindCounter:
				row("delta", p.Value)
				row("rate", p.Rate)
			case KindQuantile:
				row("count_delta", p.Value)
				for _, qp := range p.Quantiles {
					row(fmt.Sprintf("p%g", qp.P*100), qp.Value)
				}
			}
		}
	}
	return bw.Flush()
}

// csvLabels renders labels as k=v pairs joined by ';' (comma-free so the
// long-form CSV stays trivially parseable).
func csvLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strings.NewReplacer(",", "_", ";", "_", "\n", "_").Replace(labels[k])
	}
	return strings.Join(parts, ";")
}
