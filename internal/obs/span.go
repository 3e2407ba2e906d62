package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultSpanLimit bounds the finished spans a Tracer retains unless
// SetLimit overrides it. Once full, each new span evicts the oldest —
// multi-hour runs keep the freshest window instead of growing without
// bound.
const DefaultSpanLimit = 1 << 18

// Tracer records parent/child spans against an injectable clock into a
// bounded ring. A nil *Tracer is a valid no-op: every method (and every
// method of the nil *Span it hands out) does nothing, so instrumented code
// never needs nil checks on its hot path.
type Tracer struct {
	now func() float64 // seconds; wall or simulated

	mu       sync.Mutex
	nextID   uint64
	limit    int
	finished []SpanRecord // circular once len == limit; oldest at head
	head     int
	dropped  uint64
}

// SpanRecord is one completed span.
type SpanRecord struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"` // 0 = root
	Name   string            `json:"name"`
	Start  float64           `json:"start"` // seconds on the tracer clock
	End    float64           `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span length in seconds.
func (r SpanRecord) Duration() float64 { return r.End - r.Start }

// NewTracer creates a tracer. A nil clock uses wall time; pass a simulation
// clock to drive spans from simulated time deterministically.
func NewTracer(clock func() float64) *Tracer {
	if clock == nil {
		epoch := time.Now()
		clock = func() float64 { return time.Since(epoch).Seconds() }
	}
	return &Tracer{now: clock, limit: DefaultSpanLimit}
}

// SetLimit caps the retained finished spans at n (minimum 1), keeping the
// newest spans if the ring already holds more.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < len(t.finished) {
		recs := t.orderedLocked()
		t.finished = recs[len(recs)-n:]
		t.head = 0
	}
	t.limit = n
}

// Dropped returns how many finished spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Span is an in-flight span. Create via Tracer.Start or Span.Child; finish
// with End. A nil *Span is a valid no-op.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  float64

	mu    sync.Mutex
	attrs map[string]string
	ended bool
}

// Start begins a root span.
func (t *Tracer) Start(name string) *Span { return t.start(name, 0) }

func (t *Tracer) start(name string, parent uint64) *Span {
	if t == nil {
		return nil
	}
	start := t.now()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Span{t: t, id: id, parent: parent, name: name, start: start}
}

// Child begins a span nested under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(name, s.id)
}

// SetAttr attaches a key/value annotation to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End finishes the span, records it with the tracer, and returns its
// duration in seconds. Ending twice records once.
func (s *Span) End() float64 {
	if s == nil {
		return 0
	}
	end := s.t.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return 0
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	rec := SpanRecord{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end, Attrs: attrs}
	t := s.t
	t.mu.Lock()
	if len(t.finished) < t.limit {
		t.finished = append(t.finished, rec)
	} else {
		t.finished[t.head] = rec
		t.head = (t.head + 1) % len(t.finished)
		t.dropped++
	}
	t.mu.Unlock()
	return rec.Duration()
}

// orderedLocked returns the ring contents in completion order; caller
// holds t.mu.
func (t *Tracer) orderedLocked() []SpanRecord {
	out := make([]SpanRecord, 0, len(t.finished))
	out = append(out, t.finished[t.head:]...)
	out = append(out, t.finished[:t.head]...)
	return out
}

// Records returns a copy of the retained finished spans in completion
// order (oldest evicted first once the ring wraps).
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.finished) == 0 {
		return nil
	}
	return t.orderedLocked()
}

// Len returns the number of retained finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.finished)
}

// WriteChromeTrace exports finished spans as Chrome trace-event JSON, one
// complete ("ph":"X") event per line inside a JSON array, so the output is
// both line-greppable and loadable in about://tracing / Perfetto. Events
// stream to w as they are encoded — memory stays O(1) in the trace size
// beyond the span records themselves. Timestamps are the tracer clock
// scaled to microseconds.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	recs := t.Records()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, r := range recs {
		args := map[string]string{"span_id": fmt.Sprint(r.ID)}
		if r.Parent != 0 {
			args["parent_id"] = fmt.Sprint(r.Parent)
		}
		for k, v := range r.Attrs {
			args[k] = v
		}
		ev := map[string]any{
			"name": r.Name,
			"ph":   "X",
			"pid":  1,
			"tid":  1,
			"ts":   r.Start * 1e6,
			"dur":  r.Duration() * 1e6,
			"args": args,
		}
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if i < len(recs)-1 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
