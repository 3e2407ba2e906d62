package inorbit_test

import (
	"fmt"
	"log"

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
// 30-second fleet epoch, a deeper ephemeris cache, and seeded fault
// injection, then builds the fleet orchestrator those options describe.
func ExampleNew_options() {
	svc, err := inorbit.New(inorbit.Telesat,
		inorbit.WithStepSec(30),
		inorbit.WithEphemCache(128),
		inorbit.WithFaults(inorbit.FaultConfig{Seed: 7, SatMTBFHours: 6, SatMTTRSec: 1800}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := svc.Fleet()
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
// exact frames, exact fills of a caller buffer, and sub-step
// interpolation between cached keyframes.
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
