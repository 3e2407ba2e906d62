// Package isl builds the inter-satellite link topology. The planned
// constellations use the "+grid" design: every satellite keeps four laser
// links — two to its in-plane neighbours and two to the same-slot satellite
// in the adjacent planes of its shell. Shells are not cross-linked (their
// relative geometry drifts too fast for laser pointing).
package isl

import (
	"fmt"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/units"
)

// Link is one inter-satellite link between satellites A and B (IDs in the
// owning constellation, A < B).
type Link struct {
	A, B int
}

// Grid is the +grid ISL topology for one constellation.
type Grid struct {
	links []Link
	// neighbors[id] lists the satellite IDs adjacent to id.
	neighbors [][]int
}

// BandwidthGbps is the default ISL capacity, matching the multi-Gbps laser
// terminals the paper cites (Mynaric-class hardware); up/down links are an
// order of magnitude more constrained.
const BandwidthGbps = 20.0

// NewPlusGrid wires the +grid topology over the constellation.
func NewPlusGrid(c *constellation.Constellation) *Grid {
	g := &Grid{neighbors: make([][]int, c.Size())}
	addLink := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		g.links = append(g.links, Link{A: a, B: b})
		g.neighbors[a] = append(g.neighbors[a], b)
		g.neighbors[b] = append(g.neighbors[b], a)
	}

	base := 0
	for _, sh := range c.Shells {
		idOf := func(plane, slot int) int {
			plane = (plane + sh.Planes) % sh.Planes
			slot = (slot + sh.SatsPerPlane) % sh.SatsPerPlane
			return base + plane*sh.SatsPerPlane + slot
		}
		for p := 0; p < sh.Planes; p++ {
			for k := 0; k < sh.SatsPerPlane; k++ {
				id := idOf(p, k)
				// Intra-plane successor (ring). Guard against degenerate
				// one-satellite planes producing self-links.
				if sh.SatsPerPlane > 1 {
					addLink(id, idOf(p, k+1))
				}
				// Cross-plane neighbour (ring of planes).
				if sh.Planes > 1 {
					addLink(id, idOf(p+1, k))
				}
			}
		}
		base += sh.Count()
	}
	// Deduplicate: rings of size 2 generate each link twice.
	g.dedupe()
	return g
}

func (g *Grid) dedupe() {
	seen := make(map[Link]bool, len(g.links))
	out := g.links[:0]
	for _, l := range g.links {
		if seen[l] {
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	g.links = out
	for id := range g.neighbors {
		nset := make(map[int]bool, len(g.neighbors[id]))
		ns := g.neighbors[id][:0]
		for _, n := range g.neighbors[id] {
			if n == id || nset[n] {
				continue
			}
			nset[n] = true
			ns = append(ns, n)
		}
		g.neighbors[id] = ns
	}
}

// Neighbors returns the IDs adjacent to sat id (shared slice; do not mutate).
func (g *Grid) Neighbors(id int) []int { return g.neighbors[id] }

// Size returns the number of satellites the grid wires, the length every
// position snapshot indexed by satellite ID must have.
func (g *Grid) Size() int { return len(g.neighbors) }

// LengthKm returns the instantaneous length of link l given a position
// snapshot indexed by satellite ID.
func LengthKm(l Link, snapshot []geo.Vec3) float64 {
	return snapshot[l.A].Distance(snapshot[l.B])
}

// Stats summarises the geometry of the topology at a snapshot.
type Stats struct {
	Links                int
	MinKm, MaxKm, MeanKm float64
	MinDegree, MaxDegree int
	MeanLatencyMs        float64
}

// StatsAt computes topology statistics for a snapshot.
func (g *Grid) StatsAt(snapshot []geo.Vec3) (Stats, error) {
	if len(snapshot) != g.Size() {
		return Stats{}, fmt.Errorf("isl: snapshot size %d, constellation %d", len(snapshot), g.Size())
	}
	s := Stats{Links: len(g.links), MinDegree: 1 << 30}
	if len(g.links) == 0 {
		s.MinDegree = 0
		return s, nil
	}
	s.MinKm = 1e18
	var sum float64
	for _, l := range g.links {
		d := LengthKm(l, snapshot)
		sum += d
		if d < s.MinKm {
			s.MinKm = d
		}
		if d > s.MaxKm {
			s.MaxKm = d
		}
	}
	s.MeanKm = sum / float64(len(g.links))
	s.MeanLatencyMs = units.PropagationDelayMs(s.MeanKm)
	for id := range g.neighbors {
		d := len(g.neighbors[id])
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s, nil
}
