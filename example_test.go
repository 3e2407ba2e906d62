package inorbit_test

import (
	"fmt"
	"log"
	"slices"

	inorbit "repro"
)

// Example shows the one-minute tour: build the Starlink service, check
// coverage and fleet size, and place a virtually-stationary server.
func Example() {
	svc, err := inorbit.New(inorbit.Starlink)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("servers:", svc.Servers())

	abuja := inorbit.LatLon{LatDeg: 9.06, LonDeg: 7.49}
	fmt.Println("abuja covered:", svc.Covered(0, abuja))

	vs, err := svc.PlaceVirtualServer(
		[]inorbit.LatLon{abuja, {LatDeg: 5.60, LonDeg: -0.19}},
		inorbit.Sticky,
		inorbit.State{SessionMB: 16, DirtyRateMBps: 2},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("policy:", vs.Policy())
	// Output:
	// servers: 4409
	// abuja covered: true
	// policy: sticky
}

// ExampleNew_kuiper builds the Kuiper preset.
func ExampleNew_kuiper() {
	svc, err := inorbit.New(inorbit.Kuiper)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(svc.Constellation().Name, svc.Servers())
	// Output: Kuiper 3236
}

// ExampleNew_options configures the service with functional options: a
// 30-second fleet epoch and seeded fault injection, then builds the fleet orchestrator those options describe.
func ExampleNew_options() {
	svc, err := inorbit.New(inorbit.Telesat,
		inorbit.WithStepSec(30),
		inorbit.WithFaults(inorbit.FaultConfig{Seed: 7, SatMTBFHours: 6, SatMTTRSec: 1800}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := svc.NewFleet()
	if err != nil {
		log.Fatal(err)
	}
	if err := fleet.Start(0); err != nil {
		log.Fatal(err)
	}
	_, armed, err := svc.Faults()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("servers:", svc.Servers())
	fmt.Println("faults armed:", armed)
	// Output:
	// servers: 1671
	// faults armed: true
}

// ExampleService_Ephemeris queries the stable propagation surface: shared
// exact frames and exact fills of a caller buffer.
func ExampleService_Ephemeris() {
	svc, err := inorbit.New(inorbit.Telesat)
	if err != nil {
		log.Fatal(err)
	}
	eph := svc.Ephemeris()

	frame := eph.SnapshotAt(60) // shared, immutable
	dst := make([]inorbit.Vec3, eph.Size())
	if err := eph.SnapshotInto(60, dst); err != nil { // exact, caller-owned
		log.Fatal(err)
	}
	fmt.Println("exact paths agree:", frame[0] == dst[0])
	// Output:
	// exact paths agree: true
}

// ExampleBuildConstellation assembles a custom Walker shell.
func ExampleBuildConstellation() {
	c, err := inorbit.BuildConstellation("demo", []inorbit.Shell{{
		Name:            "demo-600",
		AltitudeKm:      600,
		InclinationDeg:  55,
		Planes:          12,
		SatsPerPlane:    20,
		MinElevationDeg: 25,
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Size())
	// Output: 240
}

// ExampleWithFleet tunes the fleet orchestrator. WithServer, given before
// it, still sizes every satellite's payload for both the edge view and the
// fleet: one 32-core session fills a quarter of a 128-core server.
func ExampleWithFleet() {
	svc, err := inorbit.New(inorbit.Telesat,
		inorbit.WithServer(inorbit.ServerSpec{Cores: 128, MemoryGB: 2048, PowerCapFraction: 1}),
		inorbit.WithFleet(inorbit.FleetConfig{StepSec: 30}),
	)
	if err != nil {
		log.Fatal(err)
	}
	abuja := inorbit.LatLon{LatDeg: 9.06, LonDeg: 7.49}
	view, err := svc.Edge(0, abuja)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cores per server in view:", view.TotalCores/float64(len(view.Reachable)))

	fl, err := svc.NewFleet()
	if err != nil {
		log.Fatal(err)
	}
	s, err := inorbit.NewFleetSession(1, []inorbit.LatLon{abuja})
	if err != nil {
		log.Fatal(err)
	}
	s.CoresDemand = 32
	if err := fl.Submit(s); err != nil {
		log.Fatal(err)
	}
	if err := fl.Start(0); err != nil {
		log.Fatal(err)
	}
	if _, err := fl.Step(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet utilisation of its server: %.2f\n", fl.Stats().UtilizationMax)
	// Output:
	// cores per server in view: 128
	// fleet utilisation of its server: 0.25
}

// ExampleWithISLBandwidth runs the same virtual server over two ISL rates:
// each hand-off live-migrates 512 MB of session state, and the faster link
// copies it sooner.
func ExampleWithISLBandwidth() {
	users := []inorbit.LatLon{{LatDeg: 9.06, LonDeg: 7.49}, {LatDeg: 5.60, LonDeg: -0.19}}
	for _, gbps := range []float64{1, 10} {
		svc, err := inorbit.New(inorbit.Telesat, inorbit.WithISLBandwidth(gbps))
		if err != nil {
			log.Fatal(err)
		}
		vs, err := svc.PlaceVirtualServer(users, inorbit.Sticky, inorbit.State{SessionMB: 512, DirtyRateMBps: 8})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := vs.Run(0, 3600, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%.0f Gb/s: %d hand-offs, first migration %.1f s\n", gbps, len(rep.Handoffs), rep.Migrations[0].TotalSec)
	}
	// Output:
	// 1 Gb/s: 8 hand-offs, first migration 4.4 s
	// 10 Gb/s: 8 hand-offs, first migration 0.4 s
}

// ExampleWithWorkers bounds the planner's parallelism; the placements do
// not depend on it.
func ExampleWithWorkers() {
	groups := [][]inorbit.LatLon{
		{{LatDeg: 9.06, LonDeg: 7.49}, {LatDeg: 8.5, LonDeg: 9.0}},
		{{LatDeg: 51.5, LonDeg: -0.1}, {LatDeg: 48.9, LonDeg: 2.35}},
		{{LatDeg: -23.5, LonDeg: -46.6}, {LatDeg: -22.9, LonDeg: -43.2}},
	}
	placements := func(workers int) []int {
		svc, err := inorbit.New(inorbit.Telesat, inorbit.WithWorkers(workers))
		if err != nil {
			log.Fatal(err)
		}
		fl, err := svc.NewFleet()
		if err != nil {
			log.Fatal(err)
		}
		var sessions []*inorbit.FleetSession
		for i, users := range groups {
			s, err := inorbit.NewFleetSession(uint64(i+1), users)
			if err != nil {
				log.Fatal(err)
			}
			if err := fl.Submit(s); err != nil {
				log.Fatal(err)
			}
			sessions = append(sessions, s)
		}
		if err := fl.Start(0); err != nil {
			log.Fatal(err)
		}
		var sats []int
		for epoch := 0; epoch < 5; epoch++ {
			if _, err := fl.Step(); err != nil {
				log.Fatal(err)
			}
			for _, s := range sessions {
				sats = append(sats, s.Sat)
			}
		}
		return sats
	}
	fmt.Println("same placements on 1 and 4 workers:", slices.Equal(placements(1), placements(4)))
	// Output: same placements on 1 and 4 workers: true
}

// ExampleService_Feasibility runs the §4 analysis with the paper's
// defaults.
func ExampleService_Feasibility() {
	svc, err := inorbit.New(inorbit.Telesat)
	if err != nil {
		log.Fatal(err)
	}
	r, err := svc.Feasibility()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server mass: %.0f%% of the satellite\n", 100*r.WeightFraction)
	fmt.Printf("3-year cost: %.1fx a terrestrial data centre\n", r.CostRatio)
	// Output:
	// server mass: 6% of the satellite
	// 3-year cost: 3.6x a terrestrial data centre
}
