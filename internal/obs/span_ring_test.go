package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetLimit(4)
	for i := 0; i < 10; i++ {
		tr.Start(fmt.Sprintf("span%d", i)).End()
	}
	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(recs))
	}
	// Oldest evicted: the survivors are the last four, in completion order.
	for i, r := range recs {
		if want := fmt.Sprintf("span%d", 6+i); r.Name != want {
			t.Errorf("ring[%d] = %s, want %s", i, r.Name, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestTracerSetLimitTrims(t *testing.T) {
	tr := NewTracer(nil)
	for i := 0; i < 8; i++ {
		tr.Start(fmt.Sprintf("s%d", i)).End()
	}
	tr.SetLimit(3)
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("after trim: %d spans, want 3", len(recs))
	}
	if recs[0].Name != "s5" || recs[2].Name != "s7" {
		t.Errorf("trim kept %s..%s, want the newest s5..s7", recs[0].Name, recs[2].Name)
	}
}

func TestChromeTraceStreamed(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetLimit(8)
	for i := 0; i < 12; i++ {
		sp := tr.Start(fmt.Sprintf("op%d", i))
		sp.Child("inner").End()
		sp.End()
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("streamed trace is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 8 {
		t.Errorf("trace carries %d events, want the ring's 8", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" || ev["name"] == "" {
			t.Errorf("malformed event %+v", ev)
		}
	}
}
