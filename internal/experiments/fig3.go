package experiments

import (
	"fmt"
	"math"

	"repro/internal/dcs"
	"repro/internal/geo"
	"repro/internal/meetup"
	"repro/internal/netgraph"
	"repro/internal/trace"
)

// Fig3Config parameterises the meetup-server placement comparison.
type Fig3Config struct {
	// SampleEverySec and DurationSec define the time sampling (paper:
	// every minute over two hours; the quoted numbers are worst case).
	SampleEverySec, DurationSec float64
}

func (c Fig3Config) withDefaults() Fig3Config {
	if c.SampleEverySec <= 0 {
		c.SampleEverySec = 60
	}
	if c.DurationSec <= 0 {
		c.DurationSec = 7200
	}
	return c
}

// Fig3Scenario is one user-group/constellation case.
type Fig3Scenario struct {
	Name          string
	Constellation string
	Users         []geo.LatLon
	// DCNames restricts the terrestrial baseline to named cloud regions
	// (nil = all regions).
	DCNames []string
}

// WestAfricaScenario returns the paper's Fig 3 case: three users in West
// Africa on Starlink, against Azure's African regions.
func WestAfricaScenario() Fig3Scenario {
	g := trace.WestAfricaGroup()
	return Fig3Scenario{
		Name:          g.Name,
		Constellation: "starlink",
		Users:         g.Users,
		// The nearest viable Azure regions per the paper's figure.
		DCNames: []string{"South Africa North", "South Africa West", "West Europe", "North Europe", "France Central", "UAE North"},
	}
}

// TriContinentScenario returns the §3.2 Kuiper example: users near South
// Central US, Brazil South, and Australia East.
func TriContinentScenario() Fig3Scenario {
	g := trace.TriContinentGroup()
	return Fig3Scenario{
		Name:          g.Name,
		Constellation: "kuiper",
		Users:         g.Users,
		DCNames:       nil, // all regions compete; the paper names the best three
	}
}

// Fig3Result reports a scenario's worst-case-over-time numbers.
type Fig3Result struct {
	Scenario Fig3Scenario
	// TerrestrialRTTMs is the best achievable hybrid RTT (users →
	// constellation → terrestrial DC), worst case over the window.
	TerrestrialRTTMs float64
	// TerrestrialDC names the winning data-center region.
	TerrestrialDC string
	// InOrbitRTTMs is the in-orbit meetup RTT a served session actually
	// experiences, worst case over the window: a held (Sticky) server
	// drifts toward the coverage edge before handing off, so this
	// approaches the farthest-reachable bound (the paper's 16 ms). For
	// groups with no common footprint the routed placement's worst case is
	// used instead (the §3.2 Kuiper case's 66 ms).
	InOrbitRTTMs float64
	// InOrbitBestRTTMs is the per-instant optimal placement's worst case —
	// the lower bound an oracle scheduler could reach.
	InOrbitBestRTTMs float64
	// Improvement is terrestrial / in-orbit.
	Improvement float64
	// StickyPremiumMs is the mean extra latency Sticky pays over MinMax
	// for this group (the paper: 1.4 ms in the West Africa case).
	StickyPremiumMs float64
	// GeodesicKm is the minimax great-circle distance to the best region —
	// the paper's "9,200 km round-trip" quote is 2x this.
	GeodesicKm float64
}

// Fig3 runs one scenario.
func Fig3(sc Fig3Scenario, cfg Fig3Config) (Fig3Result, error) {
	cfg = cfg.withDefaults()
	set := ConstellationSet{}
	switch sc.Constellation {
	case "starlink":
		set.Starlink = true
	case "kuiper":
		set.Kuiper = true
	case "telesat":
		set.Telesat = true
	default:
		return Fig3Result{}, fmt.Errorf("experiments: unknown constellation %q", sc.Constellation)
	}
	consts, err := set.build()
	if err != nil {
		return Fig3Result{}, err
	}
	c := consts[0]

	// Terrestrial candidate sites.
	var sites []geo.LatLon
	var siteNames []string
	if len(sc.DCNames) > 0 {
		for _, name := range sc.DCNames {
			r, ok := dcs.ByName(name)
			if !ok {
				return Fig3Result{}, fmt.Errorf("experiments: unknown region %q", name)
			}
			sites = append(sites, r.Loc)
			siteNames = append(siteNames, r.Name)
		}
	} else {
		for _, r := range dcs.Regions() {
			sites = append(sites, r.Loc)
			siteNames = append(siteNames, r.Name)
		}
	}

	eng := engineFor(c)
	net := meetup.GroupNetwork(meetup.NewProviderFor(eng), sc.Users, sites)

	res := Fig3Result{Scenario: sc}
	perDCWorst := make([]float64, len(sites))
	userNodes := make([]netgraph.NodeID, len(sc.Users))
	for u := range userNodes {
		userNodes[u] = net.GroundNode(u)
	}
	for t := 0.0; t <= cfg.DurationSec; t += cfg.SampleEverySec {
		snap := net.At(t)
		// In-orbit: best routed placement at this instant; paper quotes the
		// worst instant of the best placement.
		routed, err := meetup.BestRouted(snap, len(sc.Users))
		if err != nil {
			return Fig3Result{}, fmt.Errorf("experiments: routed placement at t=%.0f: %w", t, err)
		}
		res.InOrbitBestRTTMs = math.Max(res.InOrbitBestRTTMs, routed.GroupRTTMs)

		// Terrestrial: track each DC's worst-over-time group RTT; the best
		// DC is chosen after the window (a meetup server cannot hop between
		// data centers mid-session). One SSSP per user prices that user
		// against every data centre at once (2*dist is exactly what
		// GroundToGroundRTTMs returned per pair; +Inf where disconnected).
		perUserDist := snap.AllSourcesNodeLatencies(userNodes)
		for d := range sites {
			dcNode := net.GroundNode(len(sc.Users) + d)
			worstUser := 0.0
			for u := range sc.Users {
				worstUser = math.Max(worstUser, 2*perUserDist[u][dcNode])
			}
			perDCWorst[d] = math.Max(perDCWorst[d], worstUser)
		}
	}
	res.TerrestrialRTTMs = math.Inf(1)
	for d, v := range perDCWorst {
		if v < res.TerrestrialRTTMs {
			res.TerrestrialRTTMs = v
			res.TerrestrialDC = siteNames[d]
		}
	}
	// Served in-orbit latency: a Sticky session's worst instant (the held
	// server ends each hold at the coverage edge). Falls back to the
	// routed optimum when the group shares no satellite footprint.
	res.InOrbitRTTMs = res.InOrbitBestRTTMs
	pm, err := meetup.NewPlanner(c, net.Grid, sc.Users, meetup.Config{})
	if err == nil {
		outs, err := simulateSessions(eng, []*meetup.Planner{pm}, bothPolicies, cfg.DurationSec, 5)
		if err == nil && outs[0] != nil {
			mm, st := outs[0][0], outs[0][1]
			res.StickyPremiumMs = st.RTT.Mean() - mm.RTT.Mean()
			res.InOrbitRTTMs = st.RTT.Max()
		}
	}
	if res.InOrbitRTTMs > 0 {
		res.Improvement = res.TerrestrialRTTMs / res.InOrbitRTTMs
	}

	_, worstKm := dcs.MinimaxRegion(sc.Users)
	res.GeodesicKm = worstKm
	return res, nil
}
