package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestTimelineDeltas(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total", "jobs")
	g := reg.Gauge("queue_depth", "depth")
	q := reg.Quantile("job_ms", "latency sketch")
	tl := NewTimeline(reg, TimelineConfig{CadenceSec: 10})

	c.Add(5)
	g.Set(3)
	q.Observe(2)
	tl.Record(10)

	c.Add(2)
	g.Set(7)
	q.Observe(8)
	tl.Record(20)

	frames := tl.Frames()
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want 2", len(frames))
	}
	first, second := frames[0], frames[1]
	if first.DtSec != 0 || second.DtSec != 10 {
		t.Errorf("dt = %g/%g, want 0/10", first.DtSec, second.DtSec)
	}

	get := func(fr Frame, name string) Point {
		p, ok := findPoint(fr, name, nil)
		if !ok {
			t.Fatalf("frame t=%g missing %s", fr.TSec, name)
		}
		return p
	}

	// Counters: cumulative on the first frame, per-interval delta after.
	if p := get(first, "jobs_total"); p.Value != 5 {
		t.Errorf("first counter delta = %g, want 5", p.Value)
	}
	if p := get(second, "jobs_total"); p.Value != 2 || p.Rate != 0.2 {
		t.Errorf("second counter delta/rate = %g/%g, want 2/0.2", p.Value, p.Rate)
	}
	// Gauges: levels, never deltas.
	if p := get(second, "queue_depth"); p.Value != 7 || p.Rate != 0 {
		t.Errorf("gauge = %g (rate %g), want 7 (rate 0)", p.Value, p.Rate)
	}
	// Quantiles: count and sum deltas plus the sketch's current estimates.
	if p := get(second, "job_ms"); p.Value != 1 || p.Sum != 8 || len(p.Quantiles) == 0 {
		t.Errorf("quantile point = %+v, want count/sum delta 1/8 with estimates", p)
	}
}

func TestTimelineRingBound(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	tl := NewTimeline(reg, TimelineConfig{CadenceSec: 1, Capacity: 4})
	for i := 0; i < 10; i++ {
		tl.Record(float64(i))
	}
	st := tl.Stats()
	if st.Frames != 4 || st.Capacity != 4 || st.Dropped != 6 {
		t.Errorf("stats = %+v, want 4 frames, 6 dropped", st)
	}
	frames := tl.Frames()
	if frames[0].TSec != 6 || frames[len(frames)-1].TSec != 9 {
		t.Errorf("ring holds t=%g..%g, want 6..9 (oldest evicted)", frames[0].TSec, frames[len(frames)-1].TSec)
	}
	if st.OldestT != 6 || st.NewestT != 9 {
		t.Errorf("stats window %g..%g, want 6..9", st.OldestT, st.NewestT)
	}
}

func TestTimelineMaybeRecordCadence(t *testing.T) {
	reg := NewRegistry()
	tl := NewTimeline(reg, TimelineConfig{CadenceSec: 60})
	recorded := 0
	for tick := 0; tick <= 120; tick += 15 {
		if tl.MaybeRecord(float64(tick)) {
			recorded++
		}
	}
	if recorded != 3 { // t=0, 60, 120
		t.Errorf("recorded %d frames over 120s at 60s cadence, want 3", recorded)
	}
}

func TestTimelineJSONLRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("req_total", "requests", "code")
	c.With("200").Add(9)
	c.With("500").Add(1)
	tl := NewTimeline(reg, TimelineConfig{})
	tl.Record(30)
	tl.Record(60)

	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFramesJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tl.Frames()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].TSec != want[i].TSec || len(got[i].Points) != len(want[i].Points) {
			t.Errorf("frame %d: t=%g points=%d, want t=%g points=%d",
				i, got[i].TSec, len(got[i].Points), want[i].TSec, len(want[i].Points))
		}
	}
	if _, ok := findPoint(got[0], "req_total", map[string]string{"code": "500"}); !ok {
		t.Error("labels lost in round trip")
	}

	if _, err := ReadFramesJSONL(strings.NewReader("{not json\n")); err == nil {
		t.Error("bad JSONL line not rejected")
	}
}

// FuzzReadFramesJSONL: any input either fails to parse or parses to frames
// that survive a WriteFramesJSONL round trip unchanged.
func FuzzReadFramesJSONL(f *testing.F) {
	f.Add([]byte(`{"t_sec":30,"dt_sec":0,"points":[{"name":"req_total","kind":"counter","labels":{"code":"200"},"value":9}]}` + "\n\n"))
	f.Add([]byte(`{"t_sec":60,"dt_sec":30,"points":[{"name":"job_ms","kind":"quantile","value":2,"rate":0.1,"sum":4,"quantiles":[{"p":0.5,"value":2}]}]}`))
	f.Add([]byte(`{"points":[{"labels":{},"quantiles":[]}]}`))
	f.Add([]byte("{not json\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		frames, err := ReadFramesJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFramesJSONL(&buf, frames); err != nil {
			t.Fatalf("parsed frames do not write: %v", err)
		}
		again, err := ReadFramesJSONL(&buf)
		if err != nil {
			t.Fatalf("written frames do not parse: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(again, frames) {
			t.Fatalf("round trip changed the frames:\n got %#v\nwant %#v", again, frames)
		}
	})
}

func TestTimelineCSVAndHTML(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("level", "a level").Set(4)
	reg.Quantile("lat_ms", "latency").Observe(2)
	tl := NewTimeline(reg, TimelineConfig{})
	tl.Record(1)
	tl.Record(2)

	var csv bytes.Buffer
	if err := tl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"t_sec,name,labels,field,value", "level,,value,4", "lat_ms,,p50,2"} {
		if !strings.Contains(csv.String(), want) {
			t.Errorf("CSV missing %q in:\n%s", want, csv.String())
		}
	}

	var html bytes.Buffer
	if err := tl.WriteHTML(&html, "unit test"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "unit test", "<svg", "lat_ms"} {
		if !strings.Contains(html.String(), want) {
			t.Errorf("HTML missing %q", want)
		}
	}
}
