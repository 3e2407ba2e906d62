// Quickstart: build the Starlink Phase I service and ask, for a few places
// on Earth, what in-orbit compute is reachable right now and at what
// latency — the paper's §3.1 "compute wherever you want" in five lines of
// API.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	svc, err := inorbit.New(inorbit.Starlink)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-orbit computing service over %s: %d satellite-servers\n\n",
		svc.Constellation().Name, svc.Servers())

	places := []struct {
		name string
		loc  inorbit.LatLon
	}{
		{"Abuja, Nigeria", inorbit.LatLon{LatDeg: 9.06, LonDeg: 7.49}},
		{"Zurich, Switzerland", inorbit.LatLon{LatDeg: 47.38, LonDeg: 8.54}},
		{"Punta Arenas, Chile", inorbit.LatLon{LatDeg: -53.16, LonDeg: -70.91}},
		{"McMurdo-ish, 77S", inorbit.LatLon{LatDeg: -77.0, LonDeg: 166.0}},
		{"Mid-Pacific buoy", inorbit.LatLon{LatDeg: 0, LonDeg: -150}},
	}
	for _, p := range places {
		view, err := svc.Edge(0, p.loc)
		if err != nil {
			log.Fatal(err)
		}
		if len(view.Reachable) == 0 {
			fmt.Printf("%-22s no satellite-server in view\n", p.name)
			continue
		}
		fmt.Printf("%-22s %3d servers in view, nearest %5.1f ms RTT, farthest %5.1f ms, %5.0f cores reachable\n",
			p.name, len(view.Reachable), view.NearestRTTMs, view.FarthestRTTMs, view.TotalCores)
	}
}
