// Package compute models the satellite-server hardware of the in-orbit
// compute service: per-satellite capacity in cores, memory and power-capped
// utilisation. It holds no bookings: the fleet orchestrator keeps its
// session books as dense per-satellite arrays, and the serving engine its
// per-satellite request cores.
package compute

import "fmt"

// ServerSpec is the compute capacity carried by one satellite.
type ServerSpec struct {
	// Cores is the number of CPU cores.
	Cores int
	// MemoryGB is the installed memory.
	MemoryGB int
	// PowerCapFraction limits sustained utilisation to respect the
	// satellite's power budget (§4): 1.0 means unconstrained.
	PowerCapFraction float64
}

// DefaultServerSpec mirrors the paper's HPE DL325 reference with a power
// cap reflecting the ~15-23% budget pressure.
func DefaultServerSpec() ServerSpec {
	return ServerSpec{Cores: 64, MemoryGB: 2048, PowerCapFraction: 1.0}
}

// Validate reports whether the spec is usable.
func (s ServerSpec) Validate() error {
	if s.Cores <= 0 || s.MemoryGB <= 0 {
		return fmt.Errorf("compute: cores (%d) and memory (%d GB) must be positive", s.Cores, s.MemoryGB)
	}
	if s.PowerCapFraction <= 0 || s.PowerCapFraction > 1 {
		return fmt.Errorf("compute: power cap %v outside (0,1]", s.PowerCapFraction)
	}
	return nil
}

// EffectiveCores returns the sustained core capacity under the power cap,
// rounded by an explicit float64(...) so that no caller's addition fuses
// with the product.
func (s ServerSpec) EffectiveCores() float64 {
	return float64(float64(s.Cores) * s.PowerCapFraction)
}
