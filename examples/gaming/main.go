// Gaming: the paper's Fig 3 scenario. Three friends in West Africa want a
// meetup server for an interactive game. We compare the best terrestrial
// data center (reached over the constellation) with an in-orbit meetup
// server, then run a two-hour session under MinMax and Sticky selection to
// show the stationarity trade-off (§5).
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/experiments"
	"repro/internal/meetup"
	"repro/internal/stats"
)

func main() {
	fmt.Println("=== Meetup servers for a West African gaming group (paper Fig 3) ===")

	res, err := experiments.Fig3(experiments.WestAfricaScenario(),
		experiments.Fig3Config{SampleEverySec: 300, DurationSec: 3600})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest terrestrial meetup: %-20s %6.1f ms worst-case RTT (%.0f km to farthest user)\n",
		res.TerrestrialDC, res.TerrestrialRTTMs, res.GeodesicKm)
	fmt.Printf("in-orbit meetup server:  %-20s %6.1f ms worst-case RTT\n", "(satellite)", res.InOrbitRTTMs)
	fmt.Printf("improvement: %.1fx lower latency in orbit (paper: 46 ms -> 16 ms, ~3x)\n", res.Improvement)

	// Session dynamics: MinMax vs Sticky over two hours.
	svc, err := inorbit.New(inorbit.Starlink)
	if err != nil {
		log.Fatal(err)
	}
	users := []inorbit.LatLon{
		{LatDeg: 9.06, LonDeg: 7.49},  // Abuja
		{LatDeg: 3.87, LonDeg: 11.52}, // Yaoundé
		{LatDeg: 5.60, LonDeg: -0.19}, // Accra
	}
	planner, err := svc.Meetup(users)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- two-hour session dynamics ---")
	for _, pol := range []inorbit.Policy{inorbit.MinMax, inorbit.Sticky} {
		sess, err := planner.Simulate(svc.Provider(), pol, 0, 7200, 2)
		if err != nil {
			log.Fatal(err)
		}
		med := 0.0
		if len(sess.Handoffs) > 0 {
			med = stats.NewCDF(sess.HandoffIntervals()...).Median()
		}
		fmt.Printf("%-7s %3d hand-offs, median hold %4.0f s, mean RTT %5.2f ms\n",
			pol, len(sess.Handoffs), med, sess.RTT.Mean())
	}

	// What one hand-off costs the game: live migration of session state.
	vs, err := svc.PlaceVirtualServer(users, meetup.Sticky, inorbit.State{
		SessionMB: 32, GenericMB: 2048, DirtyRateMBps: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := vs.Run(0, 3600, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvirtual server over 1 h: %d migrations, total pause %.0f ms (%.1f ms/hand-off), %.0fx below GEO latency\n",
		len(rep.Migrations), rep.TotalDowntimeSec*1000,
		rep.TotalDowntimeSec*1000/float64(max(1, len(rep.Migrations))), rep.GEOAdvantage)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
