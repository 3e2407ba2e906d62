// Virtualstation: the paper's headline abstraction in action. One logical
// server stays "stationary" above a user group for an hour while the
// physical satellites streak past at 27,000 km/h: the service plans ahead
// with Sticky selection and live-migrates session state before each
// hand-off. The log shows every hop with its migration cost.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/geo"
)

func main() {
	svc, err := inorbit.New(inorbit.Starlink)
	if err != nil {
		log.Fatal(err)
	}

	users := []inorbit.LatLon{
		{LatDeg: -1.29, LonDeg: 36.82}, // Nairobi
		{LatDeg: 0.35, LonDeg: 32.58},  // Kampala
		{LatDeg: -6.79, LonDeg: 39.21}, // Dar es Salaam
	}
	fmt.Println("=== Virtual stationarity over East Africa (paper §5) ===")
	fmt.Printf("group: Nairobi / Kampala / Dar es Salaam — centroid %v\n\n", geo.Centroid(users))

	vs, err := svc.PlaceVirtualServer(users, inorbit.Sticky, inorbit.State{
		SessionMB:     48,   // player + match state, on the critical path
		GenericMB:     4096, // the game world, replicated ahead
		DirtyRateMBps: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := vs.Run(0, 3600, 2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("hand-off log:")
	for i, h := range rep.Handoffs {
		m := rep.Migrations[i]
		fmt.Printf("  t=%5.0fs  sat %4d -> %4d  held %4.0fs  path %5.1f ms  live migration: %5.0f ms total, %4.1f ms pause, %d rounds\n",
			h.TimeSec, h.From, h.To, h.HeldSec, h.TransferMs,
			m.TotalSec*1000, m.DowntimeSec*1000, m.Rounds)
	}
	fmt.Printf("\nsession: mean RTT %.2f ms over %d samples; %d hand-offs in an hour\n",
		rep.RTT.Mean(), rep.RTT.N(), len(rep.Handoffs))
	fmt.Printf("total migration pause: %.0f ms (%.4f%% of the session)\n",
		rep.TotalDowntimeSec*1000, 100*rep.TotalDowntimeSec/3600)
	fmt.Printf("the same stationarity from GEO would cost %.0fx the latency\n", rep.GEOAdvantage)
}
