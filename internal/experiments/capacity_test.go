package experiments

import (
	"math"
	"testing"

	"repro/internal/compute"
)

func starlinkFootprints(t *testing.T, topN int) footprints {
	t.Helper()
	consts, err := ConstellationSet{Starlink: true}.build()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := footprintsOf(consts[0], topN)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestDemandValidate(t *testing.T) {
	if err := (coreDemand{adoptionFraction: 0.01, coresPerThousandUsers: 1}).validate(); err != nil {
		t.Fatal(err)
	}
	if err := (coreDemand{adoptionFraction: 1.5}).validate(); err == nil {
		t.Fatal("bad adoption accepted")
	}
	if err := (coreDemand{adoptionFraction: 0.5, coresPerThousandUsers: -1}).validate(); err == nil {
		t.Fatal("negative demand accepted")
	}
}

func TestCityCores(t *testing.T) {
	d := coreDemand{adoptionFraction: 0.01, coresPerThousandUsers: 2}
	// 1M people × 1% × 2/1000 = 20 cores.
	if got := d.cityCores(1000000); math.Abs(got-20) > 1e-9 {
		t.Fatalf("cityCores = %v", got)
	}
}

func TestBalanceValidation(t *testing.T) {
	fp := starlinkFootprints(t, 100)
	spec := compute.DefaultServerSpec()
	good := coreDemand{adoptionFraction: 0.01, coresPerThousandUsers: 1}
	if _, err := balance(fp, compute.ServerSpec{}, good); err == nil {
		t.Fatal("bad spec accepted")
	}
	if _, err := balance(fp, spec, coreDemand{adoptionFraction: 2}); err == nil {
		t.Fatal("bad demand accepted")
	}
	consts, err := ConstellationSet{Starlink: true}.build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := footprintsOf(consts[0], 0); err == nil {
		t.Fatal("topN=0 accepted")
	}
}

func TestBalanceConservation(t *testing.T) {
	fp := starlinkFootprints(t, 300)
	spec := compute.DefaultServerSpec()
	d := coreDemand{adoptionFraction: 0.02, coresPerThousandUsers: 1}
	rep, err := balance(fp, spec, d)
	if err != nil {
		t.Fatal(err)
	}
	// Allocation never exceeds demand or fleet capacity.
	if rep.totalAllocatedCores > rep.totalDemandCores+1e-6 {
		t.Fatalf("allocated %v exceeds demand %v", rep.totalAllocatedCores, rep.totalDemandCores)
	}
	nSats := len(fp.visible)
	fleet := float64(nSats) * spec.EffectiveCores()
	if rep.totalAllocatedCores > fleet+1e-6 {
		t.Fatalf("allocated %v exceeds fleet %v", rep.totalAllocatedCores, fleet)
	}
	// Per-city: allocation ≤ demand; visible sats consistent with Fig 2
	// scale (tens for mid-latitude cities).
	for _, cb := range rep.cities {
		if cb.allocatedCores > cb.demandCores+1e-6 {
			t.Fatalf("%s over-allocated: %+v", cb.name, cb)
		}
		if cb.satisfiedFraction() < 0 || cb.satisfiedFraction() > 1 {
			t.Fatalf("%s satisfaction out of range", cb.name)
		}
	}
	if rep.fleetUtilization <= 0 || rep.fleetUtilization > 1 {
		t.Fatalf("utilization = %v", rep.fleetUtilization)
	}
	// The Fig 4 connection: a large fraction of the fleet sees no city.
	idleFrac := float64(rep.idleSats) / float64(nSats)
	if idleFrac < 0.3 {
		t.Fatalf("idle fraction = %v, expected > 0.3 with 300 cities", idleFrac)
	}
}

func TestBalanceScalesWithAdoption(t *testing.T) {
	fp := starlinkFootprints(t, 200)
	spec := compute.DefaultServerSpec()
	low, err := balance(fp, spec, coreDemand{adoptionFraction: 0.001, coresPerThousandUsers: 1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := balance(fp, spec, coreDemand{adoptionFraction: 0.2, coresPerThousandUsers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Light demand: everyone satisfied. Heavy demand: metros oversubscribe
	// their footprint (the paper's "one satellite may not offer a large
	// amount of available compute").
	if low.satisfiedFraction() < 0.999 {
		t.Fatalf("light demand not fully served: %v", low.satisfiedFraction())
	}
	if high.satisfiedFraction() >= 0.999 {
		t.Fatalf("heavy demand fully served — model has no scarcity: %v", high.satisfiedFraction())
	}
	if high.fleetUtilization <= low.fleetUtilization {
		t.Fatal("utilization should grow with adoption")
	}
	worst, ok := high.worstCity()
	if !ok {
		t.Fatal("no worst city")
	}
	if worst.satisfiedFraction() >= 1 {
		t.Fatalf("worst city fully satisfied under heavy load: %+v", worst)
	}
}

func TestZeroDemandFullySatisfied(t *testing.T) {
	rep, err := balance(starlinkFootprints(t, 50), compute.DefaultServerSpec(),
		coreDemand{adoptionFraction: 0, coresPerThousandUsers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.satisfiedFraction() != 1 || rep.totalAllocatedCores != 0 {
		t.Fatalf("zero demand mishandled: %+v", rep)
	}
	if _, ok := rep.worstCity(); !ok {
		t.Fatal("worstCity should exist")
	}
}
