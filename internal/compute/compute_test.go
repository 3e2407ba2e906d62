package compute

import (
	"math"
	"testing"
)

func newNode(t *testing.T, satID int, spec ServerSpec) *Node {
	t.Helper()
	n, err := NewNode(satID, spec)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name string
		s    ServerSpec
		ok   bool
	}{
		{"default", DefaultServerSpec(), true},
		{"no-cores", ServerSpec{Cores: 0, MemoryGB: 1, PowerCapFraction: 1}, false},
		{"no-mem", ServerSpec{Cores: 1, MemoryGB: 0, PowerCapFraction: 1}, false},
		{"bad-cap", ServerSpec{Cores: 1, MemoryGB: 1, PowerCapFraction: 1.5}, false},
		{"zero-cap", ServerSpec{Cores: 1, MemoryGB: 1, PowerCapFraction: 0}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.s.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestEffectiveCoresUnderPowerCap(t *testing.T) {
	s := ServerSpec{Cores: 64, MemoryGB: 2048, PowerCapFraction: 0.5}
	if got := s.EffectiveCores(); got != 32 {
		t.Fatalf("EffectiveCores = %v", got)
	}
}

func TestPlaceReleaseAccounting(t *testing.T) {
	n := newNode(t, 7, ServerSpec{Cores: 8, MemoryGB: 64, PowerCapFraction: 1})
	if err := n.Place(Task{ID: 1, Cores: 4, MemoryGB: 32}); err != nil {
		t.Fatal(err)
	}
	if got := n.UtilizationCores(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Utilization = %v", got)
	}
	// Duplicate ID rejected.
	if err := n.Place(Task{ID: 1, Cores: 1}); err == nil {
		t.Fatal("duplicate task accepted")
	}
	// Negative demands rejected.
	if err := n.Place(Task{ID: 2, Cores: -1}); err == nil {
		t.Fatal("negative demand accepted")
	}
	// Overflow rejected.
	if err := n.Place(Task{ID: 3, Cores: 5}); err == nil {
		t.Fatal("core overflow accepted")
	}
	if err := n.Place(Task{ID: 4, Cores: 1, MemoryGB: 64}); err == nil {
		t.Fatal("memory overflow accepted")
	}
	// Release frees capacity.
	if err := n.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := n.Release(1); err == nil {
		t.Fatal("double release accepted")
	}
	if err := n.Place(Task{ID: 3, Cores: 8, MemoryGB: 64}); err != nil {
		t.Fatalf("full-capacity placement after release failed: %v", err)
	}
}

func TestNodeRejectsBadSpec(t *testing.T) {
	if _, err := NewNode(1, ServerSpec{}); err == nil {
		t.Fatal("zero spec accepted")
	}
}
