// Package dcs embeds the terrestrial cloud data-center regions used as the
// paper's Fig 3 baseline. The list approximates Microsoft Azure's 2020
// public region map — the provider the paper picks because it "has more
// global regions than any other cloud provider" — with each region placed at
// its host metro. Fig 3 depends only on nearest-region distances, which are
// robust to city-level coordinate approximation (DESIGN.md §5.2).
package dcs

import (
	"math"

	"repro/internal/geo"
)

// Region is one cloud data-center region.
type Region struct {
	// Name is the provider's region name ("South Africa North", ...).
	Name string
	// Metro is the host metropolitan area.
	Metro string
	// Loc is the region's approximate location.
	Loc geo.LatLon
}

// Regions returns the embedded region list (fresh copy).
func Regions() []Region {
	out := make([]Region, len(regions))
	copy(out, regions)
	return out
}

// ByName returns the region with the given name and whether it exists.
func ByName(name string) (Region, bool) {
	for _, r := range regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// MinimaxRegion returns the region minimising the maximum great-circle
// distance to any of the given user locations — the best possible
// terrestrial meetup-server placement in the paper's Fig 3 sense — along
// with that maximum distance in km.
func MinimaxRegion(users []geo.LatLon) (Region, float64) {
	best := regions[0]
	bestMax := math.Inf(1)
	for _, r := range regions {
		worst := 0.0
		for _, u := range users {
			if d := geo.GreatCircleKm(u, r.Loc); d > worst {
				worst = d
			}
		}
		if worst < bestMax {
			bestMax = worst
			best = r
		}
	}
	return best, bestMax
}

// regions approximates the Azure 2020 region map. Coordinates are the host
// metros'.
var regions = []Region{
	{"East US", "Virginia", geo.LatLon{LatDeg: 37.37, LonDeg: -79.82}},
	{"East US 2", "Virginia", geo.LatLon{LatDeg: 36.85, LonDeg: -78.39}},
	{"Central US", "Iowa", geo.LatLon{LatDeg: 41.59, LonDeg: -93.62}},
	{"North Central US", "Illinois", geo.LatLon{LatDeg: 41.88, LonDeg: -87.63}},
	{"South Central US", "Texas", geo.LatLon{LatDeg: 29.42, LonDeg: -98.49}},
	{"West Central US", "Wyoming", geo.LatLon{LatDeg: 41.14, LonDeg: -104.82}},
	{"West US", "California", geo.LatLon{LatDeg: 37.37, LonDeg: -121.92}},
	{"West US 2", "Washington", geo.LatLon{LatDeg: 47.23, LonDeg: -119.85}},
	{"Canada Central", "Toronto", geo.LatLon{LatDeg: 43.65, LonDeg: -79.38}},
	{"Canada East", "Quebec City", geo.LatLon{LatDeg: 46.81, LonDeg: -71.21}},
	{"Brazil South", "Sao Paulo", geo.LatLon{LatDeg: -23.55, LonDeg: -46.63}},
	{"North Europe", "Dublin", geo.LatLon{LatDeg: 53.35, LonDeg: -6.26}},
	{"West Europe", "Amsterdam", geo.LatLon{LatDeg: 52.37, LonDeg: 4.90}},
	{"UK South", "London", geo.LatLon{LatDeg: 51.51, LonDeg: -0.13}},
	{"UK West", "Cardiff", geo.LatLon{LatDeg: 51.48, LonDeg: -3.18}},
	{"France Central", "Paris", geo.LatLon{LatDeg: 48.86, LonDeg: 2.35}},
	{"France South", "Marseille", geo.LatLon{LatDeg: 43.30, LonDeg: 5.37}},
	{"Germany West Central", "Frankfurt", geo.LatLon{LatDeg: 50.11, LonDeg: 8.68}},
	{"Germany North", "Berlin", geo.LatLon{LatDeg: 52.52, LonDeg: 13.40}},
	{"Switzerland North", "Zurich", geo.LatLon{LatDeg: 47.38, LonDeg: 8.54}},
	{"Switzerland West", "Geneva", geo.LatLon{LatDeg: 46.20, LonDeg: 6.14}},
	{"Norway East", "Oslo", geo.LatLon{LatDeg: 59.91, LonDeg: 10.75}},
	{"Norway West", "Stavanger", geo.LatLon{LatDeg: 58.97, LonDeg: 5.73}},
	{"Sweden Central", "Gavle", geo.LatLon{LatDeg: 60.67, LonDeg: 17.14}},
	{"East Asia", "Hong Kong", geo.LatLon{LatDeg: 22.32, LonDeg: 114.17}},
	{"Southeast Asia", "Singapore", geo.LatLon{LatDeg: 1.35, LonDeg: 103.82}},
	{"Japan East", "Tokyo", geo.LatLon{LatDeg: 35.68, LonDeg: 139.69}},
	{"Japan West", "Osaka", geo.LatLon{LatDeg: 34.69, LonDeg: 135.50}},
	{"Korea Central", "Seoul", geo.LatLon{LatDeg: 37.57, LonDeg: 126.98}},
	{"Korea South", "Busan", geo.LatLon{LatDeg: 35.18, LonDeg: 129.08}},
	{"Central India", "Pune", geo.LatLon{LatDeg: 18.52, LonDeg: 73.86}},
	{"South India", "Chennai", geo.LatLon{LatDeg: 13.08, LonDeg: 80.27}},
	{"West India", "Mumbai", geo.LatLon{LatDeg: 19.08, LonDeg: 72.88}},
	{"Australia East", "Sydney", geo.LatLon{LatDeg: -33.87, LonDeg: 151.21}},
	{"Australia Southeast", "Melbourne", geo.LatLon{LatDeg: -37.81, LonDeg: 144.96}},
	{"Australia Central", "Canberra", geo.LatLon{LatDeg: -35.28, LonDeg: 149.13}},
	{"UAE North", "Dubai", geo.LatLon{LatDeg: 25.20, LonDeg: 55.27}},
	{"UAE Central", "Abu Dhabi", geo.LatLon{LatDeg: 24.45, LonDeg: 54.38}},
	{"South Africa North", "Johannesburg", geo.LatLon{LatDeg: -26.20, LonDeg: 28.05}},
	{"South Africa West", "Cape Town", geo.LatLon{LatDeg: -33.93, LonDeg: 18.42}},
}
