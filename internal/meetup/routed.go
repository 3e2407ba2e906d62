package meetup

import (
	"fmt"
	"math"

	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/netgraph"
)

// RoutedPlacement is the result of meetup placement when users reach the
// server over the constellation (uplink + ISL hops), so the server need not
// sit in every user's footprint. This is the §3.2 regime for groups spread
// across continents.
type RoutedPlacement struct {
	// SatID hosts the meetup server.
	SatID int
	// GroupRTTMs is the maximum round-trip latency over users.
	GroupRTTMs float64
	// PerUserRTTMs lists each user's RTT to the server.
	PerUserRTTMs []float64
}

// BestRouted finds the satellite minimising the group's maximum routed RTT
// at the snapshot. The network's ground stations must be exactly the user
// terminals (in group order).
func BestRouted(s *netgraph.Snapshot, users int) (RoutedPlacement, error) {
	if users <= 0 {
		return RoutedPlacement{}, fmt.Errorf("meetup: users must be positive")
	}
	// One Dijkstra per user gives latency to every satellite; the sources
	// fan out across GOMAXPROCS over the shared frozen snapshot.
	gis := make([]int, users)
	for u := range gis {
		gis[u] = u
	}
	perUser := s.AllSourcesLatencies(gis)
	sats := len(perUser[0])
	best := RoutedPlacement{SatID: -1, GroupRTTMs: math.Inf(1)}
	for id := 0; id < sats; id++ {
		worst := 0.0
		feasible := true
		for u := 0; u < users; u++ {
			ow := perUser[u][id]
			if math.IsInf(ow, 1) {
				feasible = false
				break
			}
			if rtt := 2 * ow; rtt > worst {
				worst = rtt
			}
		}
		if feasible && worst < best.GroupRTTMs {
			best.SatID = id
			best.GroupRTTMs = worst
		}
	}
	if best.SatID < 0 {
		return RoutedPlacement{}, ErrNoCandidate
	}
	best.PerUserRTTMs = make([]float64, users)
	for u := 0; u < users; u++ {
		best.PerUserRTTMs[u] = 2 * perUser[u][best.SatID]
	}
	return best, nil
}

// GroupNetwork builds a netgraph over the engine's constellation with the
// given user terminals (and optionally data-center sites) as ground
// stations, in the layout BestRouted expects (users first). Its snapshots
// draw their frames from eng.
func GroupNetwork(eng *ephem.Engine, users []geo.LatLon, dcSites []geo.LatLon) *netgraph.Network {
	grounds := make([]geo.LatLon, 0, len(users)+len(dcSites))
	grounds = append(grounds, users...)
	grounds = append(grounds, dcSites...)
	return netgraph.New(eng.Constellation(), grounds).UseEphemeris(eng)
}
