package compute

import "testing"

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

// TestNodeRejectsBadSpec: the zero spec, which a satellite server must never
// be built from, is refused by the validation every constructor runs.
func TestNodeRejectsBadSpec(t *testing.T) {
	if err := (ServerSpec{}).Validate(); err == nil {
		t.Fatal("zero spec accepted")
	}
}

func TestEffectiveCoresUnderPowerCap(t *testing.T) {
	s := ServerSpec{Cores: 64, MemoryGB: 2048, PowerCapFraction: 0.5}
	if got := s.EffectiveCores(); got != 32 {
		t.Fatalf("EffectiveCores = %v", got)
	}
}
