package faults

import (
	"math"
	"reflect"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"typical", Config{SatMTBFHours: 100, ISLFlapPerHour: 0.5, MigrationFailProb: 0.01}, true},
		{"permanent failures", Config{SatMTBFHours: 100, SatMTTRSec: -1}, true},
		{"negative MTBF", Config{SatMTBFHours: -1}, false},
		{"negative flap rate", Config{ISLFlapPerHour: -0.1}, false},
		{"saturated flap window", Config{ISLFlapPerHour: 100, ISLFlapWindowSec: 60}, false},
		{"migration prob 1", Config{MigrationFailProb: 1}, false},
		{"negative migration prob", Config{MigrationFailProb: -0.5}, false},
		{"NaN MTBF", Config{SatMTBFHours: math.NaN()}, false},
		{"NaN MTTR", Config{SatMTBFHours: 100, SatMTTRSec: math.NaN()}, false},
		{"NaN flap rate", Config{ISLFlapPerHour: math.NaN()}, false},
		{"NaN flap window", Config{ISLFlapPerHour: 0.5, ISLFlapWindowSec: math.NaN()}, false},
		{"NaN migration prob", Config{MigrationFailProb: math.NaN()}, false},
	}
	for _, c := range cases {
		_, err := New(10, c.cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: New err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
	if _, err := New(0, Config{}); err == nil {
		t.Error("New(0, ...) should fail")
	}
}

// timeline collects the full fault schedule over a horizon in fixed steps.
func timeline(t *testing.T, seed int64, step, horizon float64) []Event {
	t.Helper()
	in, err := New(64, Config{Seed: seed, SatMTBFHours: 2, SatMTTRSec: 600})
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	for tm := step; tm <= horizon; tm += step {
		out = append(out, in.Advance(tm)...)
	}
	return out
}

func TestAdvanceDeterministic(t *testing.T) {
	a := timeline(t, 7, 60, 4*3600)
	b := timeline(t, 7, 60, 4*3600)
	if len(a) == 0 {
		t.Fatal("expected events over 4 h at 2 h MTBF")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different timelines")
	}
	// A different seed must produce a different timeline.
	c := timeline(t, 8, 60, 4*3600)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical timelines")
	}
}

// TestAdvanceStepInvariance: the event sequence must not depend on how the
// caller slices time — one big Advance or many small ones see the same
// (time, sat)-ordered events.
func TestAdvanceStepInvariance(t *testing.T) {
	mk := func() *Injector {
		in, err := New(64, Config{Seed: 3, SatMTBFHours: 1, SatMTTRSec: 300})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	big := mk().Advance(2 * 3600)
	fine := mk()
	var small []Event
	for tm := 10.0; tm <= 2*3600; tm += 10 {
		small = append(small, fine.Advance(tm)...)
	}
	if !reflect.DeepEqual(big, small) {
		t.Fatalf("step size changed the timeline: %d vs %d events", len(big), len(small))
	}
}

func TestAdvanceOrderingAndState(t *testing.T) {
	in, err := New(128, Config{Seed: 11, SatMTBFHours: 0.5, SatMTTRSec: 120})
	if err != nil {
		t.Fatal(err)
	}
	evs := in.Advance(3600)
	if len(evs) == 0 {
		t.Fatal("expected events")
	}
	downAt := map[int]bool{}
	failures, recoveries := 0, 0
	for i, ev := range evs {
		if i > 0 {
			prev := evs[i-1]
			if ev.TSec < prev.TSec {
				t.Fatalf("events out of time order: %v after %v", ev, prev)
			}
			if ev.TSec == prev.TSec && ev.Sat < prev.Sat {
				t.Fatalf("tie not broken by satellite ID: %v after %v", ev, prev)
			}
		}
		switch ev.Kind {
		case SatFail:
			if downAt[ev.Sat] {
				t.Fatalf("satellite %d failed twice without recovering", ev.Sat)
			}
			downAt[ev.Sat] = true
			failures++
		case SatRecover:
			if !downAt[ev.Sat] {
				t.Fatalf("satellite %d recovered while up", ev.Sat)
			}
			downAt[ev.Sat] = false
			recoveries++
		default:
			t.Fatalf("unknown kind %v", ev.Kind)
		}
	}
	nDown := 0
	for id, down := range downAt {
		if down {
			nDown++
		}
		if in.SatUp(id) == down {
			t.Fatalf("SatUp(%d)=%v contradicts the event log", id, in.SatUp(id))
		}
	}
	if in.DownCount() != nDown {
		t.Fatalf("DownCount=%d, event log says %d", in.DownCount(), nDown)
	}
	if got := failures - recoveries; got != nDown {
		t.Fatalf("failures-recoveries=%d, want %d", got, nDown)
	}
}

func TestPermanentFailuresNeverRecover(t *testing.T) {
	in, err := New(64, Config{Seed: 5, SatMTBFHours: 0.25, SatMTTRSec: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range in.Advance(24 * 3600) {
		if ev.Kind == SatRecover {
			t.Fatalf("recovery %v under the no-repairs regime", ev)
		}
	}
	if in.DownCount() == 0 {
		t.Fatal("no satellite failed in 24 h at 15 min MTBF")
	}
}

// TestFailureRate: at MTBF m the long-run failure count over horizon h on n
// satellites should approach n·h/m (recoveries are fast relative to MTBF).
func TestFailureRate(t *testing.T) {
	const (
		n    = 500
		mtbf = 10.0 // hours
		hrs  = 50.0
	)
	in, err := New(n, Config{Seed: 1, SatMTBFHours: mtbf, SatMTTRSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	got := 0.0
	for _, ev := range in.Advance(hrs * 3600) {
		if ev.Kind == SatFail {
			got++
		}
	}
	want := n * hrs / mtbf
	if got < 0.8*want || got > 1.2*want {
		t.Fatalf("failures=%v, want about %v (±20%%)", got, want)
	}
}

func TestISLDegraded(t *testing.T) {
	in, err := New(100, Config{Seed: 2, ISLFlapPerHour: 30, ISLFlapWindowSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric in the pair, stable within a window, and off for a==b.
	if in.ISLDegraded(3, 3, 100) {
		t.Error("self-link degraded")
	}
	hits := 0
	const pairs, windows = 50, 100
	for a := 0; a < pairs; a++ {
		for w := 0; w < windows; w++ {
			tm := float64(w)*60 + 30
			d := in.ISLDegraded(a, a+1, tm)
			if d != in.ISLDegraded(a+1, a, tm) {
				t.Fatalf("asymmetric degradation for pair (%d,%d)", a, a+1)
			}
			if d != in.ISLDegraded(a, a+1, tm+20) {
				t.Fatalf("degradation not stable within window (pair %d, window %d)", a, w)
			}
			if d {
				hits++
			}
		}
	}
	// p = 30/h * 60s / 3600 = 0.5; expect 50% ± 10 points over 5000 draws.
	frac := float64(hits) / (pairs * windows)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("degraded fraction %v, want about 0.5", frac)
	}
	// Rate 0 disables.
	off, _ := New(100, Config{Seed: 2})
	for w := 0; w < 100; w++ {
		if off.ISLDegraded(1, 2, float64(w)*60) {
			t.Fatal("degradation with zero flap rate")
		}
	}
}

func TestMigrationOK(t *testing.T) {
	in, err := New(10, Config{Seed: 4, MigrationFailProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	const trials = 4000
	for s := uint64(0); s < trials; s++ {
		ok := in.MigrationOK(s, 1, 2, 0)
		if ok != in.MigrationOK(s, 1, 2, 0) {
			t.Fatal("MigrationOK not deterministic")
		}
		if !ok {
			fails++
		}
	}
	frac := float64(fails) / trials
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("failure fraction %v, want about 0.3", frac)
	}
	// Retries draw independently: across sessions, attempt 1 must not
	// always repeat attempt 0's outcome.
	same := 0
	for s := uint64(0); s < trials; s++ {
		if in.MigrationOK(s, 1, 2, 0) == in.MigrationOK(s, 1, 2, 1) {
			same++
		}
	}
	if same == trials {
		t.Fatal("attempt index does not affect the draw")
	}
	// Prob 0 always succeeds.
	sure, _ := New(10, Config{Seed: 4})
	for s := uint64(0); s < 100; s++ {
		if !sure.MigrationOK(s, 1, 2, 0) {
			t.Fatal("failure with zero failure probability")
		}
	}
}
