package compute

import (
	"strings"
	"testing"
)

func TestPowerCapBoundaryValues(t *testing.T) {
	base := ServerSpec{Cores: 64, MemoryGB: 2048}
	cases := []struct {
		cap float64
		ok  bool
	}{
		{0, false},
		{-0.1, false},
		{1e-9, true}, // tiny but positive
		{0.15, true}, // the paper's budget-pressure regime
		{1, true},    // unconstrained is the inclusive upper bound
		{1.0000001, false},
		{2, false},
	}
	for _, c := range cases {
		s := base
		s.PowerCapFraction = c.cap
		if err := s.Validate(); (err == nil) != c.ok {
			t.Fatalf("cap %v: err=%v, want ok=%v", c.cap, err, c.ok)
		}
	}
	s := base
	s.PowerCapFraction = 1e-9
	if got := s.EffectiveCores(); got <= 0 || got >= 1 {
		t.Fatalf("tiny cap effective cores %v", got)
	}
}

func TestPlaceRejectsBeyondEffectiveCores(t *testing.T) {
	// 64 cores capped to 25%: 16 effective. A 20-core task fits the raw
	// hardware but not the power budget.
	n, err := NewNode(1, ServerSpec{Cores: 64, MemoryGB: 256, PowerCapFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if n.Fits(Task{ID: 1, Cores: 20, MemoryGB: 1}) {
		t.Fatal("power-capped node claims to fit a 20-core task with 16 effective cores")
	}
	err = n.Place(Task{ID: 1, Cores: 20, MemoryGB: 1})
	if err == nil {
		t.Fatal("placement beyond effective cores accepted")
	}
	if !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("unexpected rejection message: %v", err)
	}
	// Exactly at the cap fits; one more core does not.
	if err := n.Place(Task{ID: 2, Cores: 16, MemoryGB: 1}); err != nil {
		t.Fatalf("task at exactly the effective capacity rejected: %v", err)
	}
	if n.Fits(Task{ID: 3, Cores: 1, MemoryGB: 1}) {
		t.Fatal("full node claims spare capacity")
	}
}

func TestPlaceRejectsBeyondMemory(t *testing.T) {
	n, err := NewNode(1, ServerSpec{Cores: 8, MemoryGB: 32, PowerCapFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Place(Task{ID: 1, Cores: 1, MemoryGB: 40}); err == nil {
		t.Fatal("placement beyond memory accepted")
	}
}

func TestPlaceErrorPaths(t *testing.T) {
	n, err := NewNode(1, ServerSpec{Cores: 8, MemoryGB: 32, PowerCapFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Place(Task{ID: 1, Cores: -1}); err == nil {
		t.Fatal("negative core demand accepted")
	}
	if err := n.Place(Task{ID: 1, Cores: 1, MemoryGB: 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Place(Task{ID: 1, Cores: 1, MemoryGB: 1}); err == nil {
		t.Fatal("duplicate task ID accepted")
	}
	if err := n.Release(99); err == nil {
		t.Fatal("release of unknown task accepted")
	}
}
