package serve

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTrace feeds the JSONL trace reader arbitrary bytes: it must
// never panic, every request it accepts must pass Validate (so Feed's
// heap-order contract holds for replayed traces), and writing the accepted
// requests back out must read as the same trace.
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteTrace(&seed, testTrace(f, 5, 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2]) // truncated mid-record
	f.Add([]byte("{\"t_sec\":1,\"site\":0,\"service_ms\":5}\n\n{\"t_sec\":2,\"site\":1,\"service_ms\":6}"))
	f.Add([]byte("{\"t_sec\":NaN,\"site\":0,\"service_ms\":5}\n"))
	f.Add([]byte("{\"t_sec\":1,\"site\":0,\"service_ms\":Infinity}\n"))
	f.Add([]byte("{\"t_sec\":1e999,\"site\":0,\"service_ms\":\"NaN\"}\n"))
	f.Add([]byte("{\"t_sec\":-0,\"site\":9223372036854775808,\"service_ms\":5e-324}\n"))
	f.Add([]byte("{\"t_sec\":1,\"site\":0,\"service_ms\":5," + strings.Repeat(" ", 1<<20) + "}\n")) // over the line limit
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range reqs {
			if err := r.Validate(); err != nil {
				t.Fatalf("accepted request %d %+v fails Validate: %v", i, r, err)
			}
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, reqs); err != nil {
			t.Fatalf("WriteTrace of an accepted trace: %v", err)
		}
		back, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-read of a written trace: %v", err)
		}
		if len(back) != len(reqs) {
			t.Fatalf("round trip changed the length: %d vs %d", len(back), len(reqs))
		}
		for i := range back {
			if back[i] != reqs[i] {
				t.Fatalf("round trip changed request %d: %+v vs %+v", i, back[i], reqs[i])
			}
		}
	})
}
