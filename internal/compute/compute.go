// Package compute models the satellite-server resources of the in-orbit
// compute service: per-satellite capacity (cores, memory, power-capped
// utilisation) and the reservation of it by placed tasks.
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

// EffectiveCores returns the sustained core capacity under the power cap.
func (s ServerSpec) EffectiveCores() float64 {
	return float64(s.Cores) * s.PowerCapFraction
}

// Task is a compute request to place.
type Task struct {
	// ID identifies the task.
	ID int
	// Cores and MemoryGB are the task's demands.
	Cores    float64
	MemoryGB float64
}

// Node is one satellite-server's allocatable state.
type Node struct {
	// SatID is the hosting satellite.
	SatID int
	// Spec is the server hardware.
	Spec ServerSpec

	usedCores float64
	usedMemGB float64
	tasks     map[int]Task
}

// NewNode creates an empty node.
func NewNode(satID int, spec ServerSpec) (*Node, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Node{SatID: satID, Spec: spec, tasks: make(map[int]Task)}, nil
}

// Fits reports whether the task fits in the node's remaining capacity.
func (n *Node) Fits(t Task) bool {
	return n.usedCores+t.Cores <= n.Spec.EffectiveCores()+1e-9 &&
		n.usedMemGB+t.MemoryGB <= float64(n.Spec.MemoryGB)+1e-9
}

// Place reserves capacity for the task.
func (n *Node) Place(t Task) error {
	if t.Cores < 0 || t.MemoryGB < 0 {
		return fmt.Errorf("compute: negative task demands %+v", t)
	}
	if _, dup := n.tasks[t.ID]; dup {
		return fmt.Errorf("compute: task %d already placed on sat %d", t.ID, n.SatID)
	}
	if !n.Fits(t) {
		return fmt.Errorf("compute: task %d does not fit on sat %d (%.1f/%.1f cores, %.0f/%d GB)",
			t.ID, n.SatID, n.usedCores, n.Spec.EffectiveCores(), n.usedMemGB, n.Spec.MemoryGB)
	}
	n.usedCores += t.Cores
	n.usedMemGB += t.MemoryGB
	n.tasks[t.ID] = t
	return nil
}

// Release frees the capacity of a placed task.
func (n *Node) Release(taskID int) error {
	t, ok := n.tasks[taskID]
	if !ok {
		return fmt.Errorf("compute: task %d not on sat %d", taskID, n.SatID)
	}
	n.usedCores -= t.Cores
	n.usedMemGB -= t.MemoryGB
	delete(n.tasks, taskID)
	return nil
}

// UtilizationCores returns used/effective core fraction.
func (n *Node) UtilizationCores() float64 {
	return n.usedCores / n.Spec.EffectiveCores()
}
