package experiments

import (
	"fmt"
	"math"

	"repro/internal/cdn"
	"repro/internal/dcs"
	"repro/internal/geo"
	"repro/internal/meetup"
	"repro/internal/trace"
	"repro/internal/weather"
)

// The extension experiments go beyond the paper's figures, covering the
// §6 discussion items the paper flags but does not analyze (weather) and
// the §3.2 matchmaking framing.

// WeatherRow is one climate/margin configuration's availability.
type WeatherRow struct {
	Climate  string
	Band     weather.Band
	MarginDB float64
	// Availability is the fraction of time the in-orbit service is
	// reachable through rain, using the best-elevation satellite in view.
	Availability float64
	// OutageMmH is the rain rate at which the best-elevation link drops.
	OutageMmH float64
}

// WeatherStudy quantifies §6's weather caveat: for each climate zone and
// link margin, the availability of in-orbit compute through rain. The
// elevation of the best satellite in view is taken from the Starlink Fig 2
// geometry (a satellite near zenith is almost always available, so the
// effective elevation is high).
func WeatherStudy(margins []float64) ([]WeatherRow, error) {
	if len(margins) == 0 {
		margins = []float64{4, 8, 12}
	}
	climates := []weather.Climate{weather.Arid, weather.Temperate, weather.Tropical}
	// Best-elevation satellite from a mid-latitude point with 40+ Starlink
	// satellites in view: typically 60-80°; use a conservative 55°.
	const bestElevation = 55.0
	var out []WeatherRow
	for _, cl := range climates {
		for _, m := range margins {
			l := weather.Link{Band: weather.KaBand, MarginDB: m}
			avail, err := weather.ComputeAvailability(l, cl, []float64{bestElevation})
			if err != nil {
				return nil, err
			}
			knee, err := l.RainAtOutage(bestElevation)
			if err != nil {
				return nil, err
			}
			out = append(out, WeatherRow{
				Climate:      cl.Name,
				Band:         weather.KaBand,
				MarginDB:     m,
				Availability: avail,
				OutageMmH:    knee,
			})
		}
	}
	return out, nil
}

// MatchmakingRow is one separation bucket's outcome.
type MatchmakingRow struct {
	SeparationKm float64
	// PlayableTerrestrial is the fraction of groups whose best terrestrial
	// meetup server keeps every member under the latency cap.
	PlayableTerrestrial float64
	// PlayableInOrbit is the same with an in-orbit meetup server.
	PlayableInOrbit float64
	// MeanTerrestrialMs / MeanInOrbitMs average the group's worst-member
	// RTT for each placement.
	MeanTerrestrialMs, MeanInOrbitMs float64
}

// matchLatencyCapMs is the matchmaking playability threshold (competitive
// games: 50-80 ms RTT).
const matchLatencyCapMs = 80

// MatchmakingConfig tunes the study.
type MatchmakingConfig struct {
	// PairsPerBucket is how many two-player groups to sample per
	// separation.
	PairsPerBucket int
	// Separations lists the player separations to test, in km.
	Separations []float64
	// Seed fixes the sampling.
	Seed int64
}

func (c MatchmakingConfig) withDefaults() MatchmakingConfig {
	if c.PairsPerBucket <= 0 {
		c.PairsPerBucket = 20
	}
	if len(c.Separations) == 0 {
		c.Separations = []float64{1000, 3000, 6000, 10000, 15000}
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// Matchmaking reproduces the §3.2 framing quantitatively: matchmaking
// today restricts who can play together because a terrestrial server must
// be acceptable to everyone; an in-orbit meetup server relaxes that. For
// each separation bucket we sample player pairs anchored at population
// centers and compare playable fractions.
func Matchmaking(cfg MatchmakingConfig) ([]MatchmakingRow, error) {
	cfg = cfg.withDefaults()
	c, err := pooledPreset("starlink")
	if err != nil {
		return nil, err
	}
	eng := engineFor(c)

	// Terrestrial path model: fiber to the data center.
	var popLocs []geo.LatLon
	for _, r := range dcs.Regions() {
		popLocs = append(popLocs, r.Loc)
	}
	fiber := cdn.Terrestrial{PoPs: popLocs}.Defaults()

	// Anchors: seeded population-weighted cities, one per pair.
	anchors, err := trace.Groups(trace.GroupConfig{
		Seed: cfg.Seed, Groups: cfg.PairsPerBucket, MinUsers: 1, MaxUsers: 1,
		SpreadKm: 1, MaxAbsLatDeg: 50,
	})
	if err != nil {
		return nil, err
	}

	var out []MatchmakingRow
	for bi, sep := range cfg.Separations {
		row := MatchmakingRow{SeparationKm: sep}
		var playT, playO, n int
		var sumT, sumO float64
		for pi, g := range anchors {
			a := g.Users[0]
			// Partner at the bucket separation, deterministic bearing per
			// pair and bucket.
			brg := float64((pi*73 + bi*131) % 360)
			b := geo.Destination(a, brg, sep)
			if math.Abs(b.LatDeg) > 55 {
				continue // keep both players inside robust coverage
			}
			users := []geo.LatLon{a, b}

			// Terrestrial: the minimax cloud region over the fiber model.
			_, worstKm := dcs.MinimaxRegion(users)
			terOneWay := worstKm*fiber.PathInflation/(299792.458*fiber.FiberSpeedFraction)*1000 + fiber.LastMileMs
			ter := 2 * terOneWay

			// In-orbit: routed meetup placement at one snapshot.
			net := meetup.GroupNetwork(eng, users, nil)
			placed, err := meetup.BestRouted(net.At(0), len(users))
			if err != nil {
				continue // coverage gap; skip the pair
			}
			orb := placed.GroupRTTMs

			n++
			sumT += ter
			sumO += orb
			if ter <= matchLatencyCapMs {
				playT++
			}
			if orb <= matchLatencyCapMs {
				playO++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("experiments: no valid pairs at %v km", sep)
		}
		row.PlayableTerrestrial = float64(playT) / float64(n)
		row.PlayableInOrbit = float64(playO) / float64(n)
		row.MeanTerrestrialMs = sumT / float64(n)
		row.MeanInOrbitMs = sumO / float64(n)
		out = append(out, row)
	}
	return out, nil
}
