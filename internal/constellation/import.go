package constellation

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/orbit"
	"repro/internal/tle"
)

// FromTLEs builds a constellation from a parsed TLE catalog, grouping
// satellites into synthetic shells by (altitude, inclination). The result
// is fully usable for visibility, latency, and coverage analysis.
//
// Caveat: real plane/slot assignments are not recoverable from a TLE
// catalog, so each synthetic shell is modelled as a single plane holding
// all its satellites. A +grid built over an imported constellation
// therefore wires one ring per shell rather than the operator's actual
// cross-plane topology — use the Walker presets when ISL routing fidelity
// matters.
func FromTLEs(name string, tles []tle.TLE, minElevationDeg float64, cfg Config) (*Constellation, error) {
	if len(tles) == 0 {
		return nil, fmt.Errorf("constellation: empty TLE catalog")
	}
	if !(minElevationDeg >= 0 && minElevationDeg < 90) { // NaN fails too
		return nil, fmt.Errorf("constellation: min elevation %v outside [0,90)", minElevationDeg)
	}

	type key struct {
		altBucket int // 10 km buckets
		incBucket int // 0.5° buckets
	}
	groups := make(map[key][]orbit.Elements)
	var order []key
	for i, t := range tles {
		e := t.Elements()
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("constellation: TLE %d (%s): %w", i, t.Name, err)
		}
		k := key{
			altBucket: int(math.Round(e.AltitudeKm / 10)),
			incBucket: int(math.Round(e.InclinationDeg * 2)),
		}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], e)
	}
	// Deterministic shell order: by altitude then inclination.
	sort.Slice(order, func(i, j int) bool {
		if order[i].altBucket != order[j].altBucket {
			return order[i].altBucket < order[j].altBucket
		}
		return order[i].incBucket < order[j].incBucket
	})

	c := &Constellation{Name: name}
	id := 0
	for si, k := range order {
		members := groups[k]
		// Representative altitude/inclination: the group mean.
		var altSum, incSum float64
		for _, e := range members {
			altSum += e.AltitudeKm
			incSum += e.InclinationDeg
		}
		sh := Shell{
			Name:            fmt.Sprintf("import-%04.0fkm-%04.1fdeg", altSum/float64(len(members)), incSum/float64(len(members))),
			AltitudeKm:      altSum / float64(len(members)),
			InclinationDeg:  incSum / float64(len(members)),
			Planes:          1,
			SatsPerPlane:    len(members),
			MinElevationDeg: minElevationDeg,
		}
		c.Shells = append(c.Shells, sh)
		for slot, e := range members {
			prop, err := orbit.NewPropagator(e, cfg.Orbit)
			if err != nil {
				return nil, fmt.Errorf("constellation: shell %q member %d: %w", sh.Name, slot, err)
			}
			c.Satellites = append(c.Satellites, Satellite{
				ID:         id,
				ShellIndex: si,
				Plane:      0,
				Slot:       slot,
				Prop:       prop,
			})
			c.props = append(c.props, prop)
			id++
		}
	}
	return c, nil
}

// ExportTLEs renders the constellation as a TLE catalog with sequential
// catalog numbers starting at firstCatalog.
func (c *Constellation) ExportTLEs(firstCatalog, epochYear int, epochDay float64) []tle.TLE {
	out := make([]tle.TLE, 0, c.Size())
	for _, s := range c.Satellites {
		out = append(out, tle.FromElements(s.Name(c.Shells), firstCatalog+s.ID, s.Prop.Elements(), epochYear, epochDay))
	}
	return out
}
