// Package cities provides the population-center dataset behind the paper's
// Figures 4 and 5 ("largest n cities by population"). It embeds a curated
// list of the world's major cities with approximate coordinates and
// metro-area populations, and deterministically synthesises a long tail of
// smaller centers so callers can request up to MaxCities entries.
//
// Substitution note (DESIGN.md §5.1): the paper does not name its city-list
// source. The figures depend only on the *geographic distribution* of
// population centers — heavily northern-hemisphere, clustered on coasts and
// river plains — which the curated list preserves. The synthetic tail
// continues the population power law and clusters new entries near real
// anchors, mimicking how real secondary cities cluster around primary ones.
package cities

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/geo"
)

// City is one population center.
type City struct {
	// Name of the city; synthetic entries are named "<anchor>-satellite-<k>".
	Name string
	// Country holds an ISO-ish country label.
	Country string
	// Loc is the city's location.
	Loc geo.LatLon
	// Population is the approximate metro population.
	Population int
}

// MaxCities is the largest n accepted by TopN.
const MaxCities = 1200

// synthSeed fixes the synthetic-tail generation, keeping every run of every
// experiment identical.
const synthSeed = 20201104 // HotNets'20 presentation date

// Real returns the embedded real-city list sorted by descending population.
// The returned slice is a fresh copy.
func Real() []City {
	out := make([]City, len(realCities))
	copy(out, realCities)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Population > out[j].Population })
	return out
}

// TopN returns the n largest population centers, synthesising the tail
// beyond the embedded real list. It panics if n is out of (0, MaxCities].
func TopN(n int) []City {
	if n <= 0 || n > MaxCities {
		panic(fmt.Sprintf("cities: TopN(%d) outside (0,%d]", n, MaxCities))
	}
	all := withSyntheticTail(MaxCities)
	return all[:n]
}

// Locations projects a city slice onto its coordinates.
func Locations(cs []City) []geo.LatLon {
	out := make([]geo.LatLon, len(cs))
	for i, c := range cs {
		out[i] = c.Loc
	}
	return out
}

// withSyntheticTail extends the real list to exactly n entries with
// deterministic synthetic cities.
func withSyntheticTail(n int) []City {
	real := Real()
	if n <= len(real) {
		return real[:n]
	}
	out := make([]City, 0, n)
	out = append(out, real...)

	r := rand.New(rand.NewSource(synthSeed))
	// Population-weighted anchor sampling: big metros spawn more secondary
	// centers around them, matching real urban geography.
	cum := make([]float64, len(real))
	total := 0.0
	for i, c := range real {
		total += float64(c.Population)
		cum[i] = total
	}
	pickAnchor := func() City {
		x := r.Float64() * total
		i := sort.SearchFloat64s(cum, x)
		if i >= len(real) {
			i = len(real) - 1
		}
		return real[i]
	}

	lastPop := real[len(real)-1].Population
	for k := 0; len(out) < n; k++ {
		a := pickAnchor()
		// 80-700 km away at a random bearing: the belt where secondary
		// cities of a metro region live.
		dist := 80 + r.Float64()*620
		brg := r.Float64() * 360
		loc := geo.Destination(a.Loc, brg, dist)
		if !loc.Valid() {
			continue
		}
		// Continue the population power law downward with mild noise,
		// keeping the list sorted by construction.
		pop := int(float64(lastPop) * (0.988 + r.Float64()*0.01))
		if pop < 5000 {
			pop = 5000
		}
		lastPop = pop
		out = append(out, City{
			Name:       fmt.Sprintf("%s-satellite-%d", a.Name, k),
			Country:    a.Country,
			Loc:        loc,
			Population: pop,
		})
	}
	return out
}
