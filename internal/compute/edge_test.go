package compute

import "testing"

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
