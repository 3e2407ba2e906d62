package experiments

import (
	"fmt"

	"repro/internal/cities"
	"repro/internal/geo"
	"repro/internal/plot"
	"repro/internal/visibility"
)

// Fig4Config parameterises the invisible-satellite counts.
type Fig4Config struct {
	// Constellations to evaluate (default Starlink + Kuiper).
	Constellations ConstellationSet
	// NValues are the city-count grid points (default 100..1000 step 100).
	NValues []int
}

// fig4SnapshotSec is Fig 4's evaluation instant (paper: one snapshot).
const fig4SnapshotSec = 0

func (c Fig4Config) withDefaults() Fig4Config {
	if !c.Constellations.Starlink && !c.Constellations.Kuiper && !c.Constellations.Telesat {
		c.Constellations = Both()
	}
	if len(c.NValues) == 0 {
		for n := 100; n <= 1000; n += 100 {
			c.NValues = append(c.NValues, n)
		}
	}
	return c
}

// Fig4Result holds one constellation's invisible counts.
type Fig4Result struct {
	Constellation string
	Total         int
	NValues       []int
	Invisible     []int
}

// Series converts the result to a plot series.
func (r Fig4Result) Series() plot.Series {
	s := plot.Series{Name: r.Constellation}
	for i, n := range r.NValues {
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, float64(r.Invisible[i]))
	}
	return s
}

// Fig4 reproduces Figure 4: for each n, how many satellites are not
// directly reachable from any of the n largest population centers.
func Fig4(cfg Fig4Config) ([]Fig4Result, error) {
	cfg = cfg.withDefaults()
	maxN := 0
	for _, n := range cfg.NValues {
		if n <= 0 {
			return nil, fmt.Errorf("experiments: non-positive n %d", n)
		}
		if n > maxN {
			maxN = n
		}
	}
	grounds := cities.ECEF(cities.TopN(maxN))
	consts, err := cfg.Constellations.build()
	if err != nil {
		return nil, err
	}
	var out []Fig4Result
	for _, c := range consts {
		obs := visibility.NewObserver(c)
		snap := engineFor(c).SnapshotAt(fig4SnapshotSec)
		// firstSeen[id] = smallest city rank (1-based) that sees sat id,
		// or 0 when no city in the full list does. One pass covers all n.
		firstSeen := make([]int, c.Size())
		err := parallelFor(c.Size(), func(id int) error {
			for rank, g := range grounds {
				if obs.Visible(g, id, snap[id]) {
					firstSeen[id] = rank + 1
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		res := Fig4Result{Constellation: c.Name, Total: c.Size(), NValues: cfg.NValues}
		for _, n := range cfg.NValues {
			inv := 0
			for _, fs := range firstSeen {
				if fs == 0 || fs > n {
					inv++
				}
			}
			res.Invisible = append(res.Invisible, inv)
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig5Result holds the invisible-satellite map data.
type Fig5Result struct {
	Constellation string
	// Cities are the population centers used (their locations).
	Cities []geo.LatLon
	// InvisibleSats are the sub-satellite points of the invisible
	// satellites at the snapshot.
	InvisibleSats []geo.LatLon
	Total         int
}

// Fig5 reproduces Figure 5: the positions of the satellites invisible from
// the top-n cities, for rendering on a world map. The paper plots Starlink
// with n=1000.
func Fig5(set ConstellationSet, n int, snapshotSec float64) ([]Fig5Result, error) {
	if n <= 0 || n > cities.MaxCities {
		return nil, fmt.Errorf("experiments: n=%d out of range", n)
	}
	top := cities.TopN(n)
	grounds := cities.ECEF(top)
	locs := cities.Locations(top)
	consts, err := set.build()
	if err != nil {
		return nil, err
	}
	var out []Fig5Result
	for _, c := range consts {
		obs := visibility.NewObserver(c)
		snap := engineFor(c).SnapshotAt(snapshotSec)
		seen := make([]bool, c.Size())
		obs.MarkVisibleFromAny(grounds, snap, seen)
		res := Fig5Result{Constellation: c.Name, Cities: locs, Total: c.Size()}
		for id, s := range seen {
			if !s {
				res.InvisibleSats = append(res.InvisibleSats, geo.FromECEF(snap[id]))
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// RenderFig5 draws the Fig 5 world map (cities as dots, invisible
// satellites as 'O') into a plot.WorldMap.
func RenderFig5(r Fig5Result, width, height int) *plot.WorldMap {
	m := plot.NewWorldMap(width, height)
	var clats, clons, slats, slons []float64
	for _, c := range r.Cities {
		clats = append(clats, c.LatDeg)
		clons = append(clons, c.LonDeg)
	}
	for _, s := range r.InvisibleSats {
		slats = append(slats, s.LatDeg)
		slons = append(slons, s.LonDeg)
	}
	m.Plot(clats, clons, '+')
	m.Plot(slats, slons, 'O')
	return m
}
