package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// WriteTrace serialises a request trace as JSON Lines — one Request object
// per line — the interchange format for replaying a workload across runs
// or feeding externally captured traces into the engine.
func WriteTrace(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			return fmt.Errorf("serve: write trace line %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL request trace written by WriteTrace (blank lines
// are skipped). It validates each record. Arrival times must be
// non-decreasing to be accepted by Engine.Feed, which rejects out-of-order
// feeds with ErrNonMonotonic; traces written by WriteTrace from Generate
// are already time-sorted.
func ReadTrace(r io.Reader) ([]Request, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Request
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, fmt.Errorf("serve: trace line %d: %w", line, err)
		}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("serve: trace line %d: %w", line, err)
		}
		out = append(out, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: read trace: %w", err)
	}
	return out, nil
}

// Validate reports whether the request is well-formed (site bounds are
// checked against the engine's site list at Feed time).
func (r Request) Validate() error {
	// The negated comparisons also catch NaN, which fails every ordering
	// test and would otherwise break the (time, seq) heap order.
	if !(r.TSec >= 0) || math.IsInf(r.TSec, 1) {
		return fmt.Errorf("request arrival %v must be finite and not before t=0", r.TSec)
	}
	if r.Site < 0 {
		return fmt.Errorf("request site %d negative", r.Site)
	}
	if !(r.ServiceMs > 0) || math.IsInf(r.ServiceMs, 1) {
		return fmt.Errorf("request service time %v ms must be finite and positive", r.ServiceMs)
	}
	return nil
}
