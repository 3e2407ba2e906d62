package experiments

import (
	"repro/internal/cdn"
	"repro/internal/cities"
	"repro/internal/dcs"
	"repro/internal/geo"
	"repro/internal/stats"
	"repro/internal/visibility"
)

// CDNRow summarises the §3.1 latency distributions over population centers.
type CDNRow struct {
	Name string
	// P50Ms/P95Ms/MaxMs summarise the RTT distribution over cities,
	// population-unweighted.
	P50Ms, P95Ms, MaxMs float64
	// Over100msPct is the fraction of cities beyond the paper's 100 ms
	// line.
	Over100msPct float64
}

// CDNStudy computes the city-level RTT distribution to the terrestrial CDN
// (PoPs at the cloud regions) versus the in-orbit edge, quantifying the
// paper's "CDN edge latencies still exceed 100 ms" in distribution form.
func CDNStudy(topN int) ([]CDNRow, error) {
	if topN <= 0 {
		topN = 1000
	}
	set := ConstellationSet{Starlink: true}
	consts, err := set.build()
	if err != nil {
		return nil, err
	}
	c := consts[0]
	var pops []geo.LatLon
	for _, r := range dcs.Regions() {
		pops = append(pops, r.Loc)
	}
	ter := cdn.Terrestrial{PoPs: pops}.Defaults()
	orb := cdn.Orbital{Observer: visibility.NewObserver(c)}
	snap := engineFor(c).SnapshotAt(0)

	terCDF, orbCDF := stats.NewCDF(), stats.NewCDF()
	over100T, over100O, covered := 0, 0, 0
	for _, city := range cities.TopN(topN) {
		t, err := ter.RTTMs(city.Loc)
		if err != nil {
			return nil, err
		}
		terCDF.Add(t)
		if t > 100 {
			over100T++
		}
		if o, ok := orb.RTTMs(city.Loc, snap); ok {
			covered++
			orbCDF.Add(o)
			if o > 100 {
				over100O++
			}
		}
	}
	mk := func(name string, cdf *stats.CDF, over int, n int) CDNRow {
		row := CDNRow{Name: name}
		if cdf.N() > 0 {
			row.P50Ms = cdf.Median()
			row.P95Ms = cdf.Quantile(0.95)
			row.MaxMs = cdf.Max()
		}
		if n > 0 {
			row.Over100msPct = 100 * float64(over) / float64(n)
		}
		return row
	}
	return []CDNRow{
		mk("terrestrial CDN", terCDF, over100T, topN),
		mk("in-orbit edge", orbCDF, over100O, covered),
	}, nil
}
