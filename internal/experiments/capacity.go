package experiments

import (
	"fmt"

	"repro/internal/cities"
	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/visibility"
)

// CapacityRow is one adoption level's fleet balance.
type CapacityRow struct {
	AdoptionPct float64
	// DemandCores is the concurrent core demand of all evaluated cities.
	DemandCores  float64
	SatisfiedPct float64
	FleetUtilPct float64
	IdleSats     int
	// The least-satisfied city: its name, served share, core demand and
	// the satellites in its view.
	WorstCity         string
	WorstSatisfiedPct float64
	WorstDemandCores  float64
	WorstVisibleSats  int
}

// CapacityStudy sweeps service adoption and balances urban core demand
// against the fleet's servers (one DL325 per satellite), quantifying both
// metro oversubscription — "one satellite may not offer a large amount of
// available compute" — and Fig 4/5's idle southern fleet in one table.
func CapacityStudy(adoptions []float64, topN int) ([]CapacityRow, error) {
	if len(adoptions) == 0 {
		adoptions = []float64{0.001, 0.01, 0.05, 0.2}
	}
	if topN <= 0 {
		topN = 500
	}
	set := ConstellationSet{Starlink: true}
	consts, err := set.build()
	if err != nil {
		return nil, err
	}
	fp, err := footprintsOf(consts[0], topN)
	if err != nil {
		return nil, err
	}
	spec := compute.DefaultServerSpec()

	var out []CapacityRow
	for _, a := range adoptions {
		rep, err := balance(fp, spec, coreDemand{adoptionFraction: a, coresPerThousandUsers: 1})
		if err != nil {
			return nil, err
		}
		row := CapacityRow{
			AdoptionPct:  a * 100,
			DemandCores:  rep.totalDemandCores,
			SatisfiedPct: rep.satisfiedFraction() * 100,
			FleetUtilPct: rep.fleetUtilization * 100,
			IdleSats:     rep.idleSats,
		}
		if worst, ok := rep.worstCity(); ok {
			row.WorstCity = worst.name
			row.WorstSatisfiedPct = worst.satisfiedFraction() * 100
			row.WorstDemandCores = worst.demandCores
			row.WorstVisibleSats = worst.visibleSats
		}
		out = append(out, row)
	}
	return out, nil
}

// coreDemand converts population into core demand.
type coreDemand struct {
	// adoptionFraction is the share of the population using the service.
	adoptionFraction float64
	// coresPerThousandUsers is the concurrent core demand per 1,000 active
	// users (edge inference, game servers, CDN logic).
	coresPerThousandUsers float64
}

func (d coreDemand) validate() error {
	if d.adoptionFraction < 0 || d.adoptionFraction > 1 {
		return fmt.Errorf("experiments: adoption fraction %v outside [0,1]", d.adoptionFraction)
	}
	if d.coresPerThousandUsers < 0 {
		return fmt.Errorf("experiments: negative core demand")
	}
	return nil
}

// cityCores returns the core demand of one city.
func (d coreDemand) cityCores(population int) float64 {
	return float64(population) * d.adoptionFraction * d.coresPerThousandUsers / 1000
}

// footprints is the geometry a fleet balance runs on — which of the
// evaluated cities each satellite sees at t=0. It does not depend on
// demand, so a sweep builds it once.
type footprints struct {
	top []cities.City
	// visible[sat] lists the indices into top inside the satellite's
	// footprint; inView[i] counts the satellites that see top[i].
	visible [][]int
	inView  []int
}

func footprintsOf(c *constellation.Constellation, topN int) (footprints, error) {
	if topN <= 0 || topN > cities.MaxCities {
		return footprints{}, fmt.Errorf("experiments: topN %d out of range", topN)
	}
	fp := footprints{top: cities.TopN(topN), visible: make([][]int, c.Size()), inView: make([]int, topN)}
	surf := visibility.NewSurface(visibility.NewObserver(c), cities.Locations(fp.top))
	surf.Scan(engineFor(c).SnapshotAt(0), func(rows [][]int32) {
		for ci, row := range rows {
			fp.inView[ci] = len(row)
			for _, sat := range row {
				fp.visible[sat] = append(fp.visible[sat], ci)
			}
		}
	})
	return fp, nil
}

// cityBalance is one city's supply/demand outcome.
type cityBalance struct {
	name string
	// demandCores is the city's concurrent core demand; allocatedCores what
	// the visible satellites could allocate to it.
	demandCores, allocatedCores float64
	// visibleSats counts satellites in the city's footprint.
	visibleSats int
}

// satisfied returns allocated/demand clamped to 1 (1 when demand is zero).
func satisfied(allocated, demand float64) float64 {
	if demand <= 0 {
		return 1
	}
	return min(allocated/demand, 1)
}

func (b cityBalance) satisfiedFraction() float64 {
	return satisfied(b.allocatedCores, b.demandCores)
}

// balanceReport is the fleet-wide balance at one instant.
type balanceReport struct {
	// cities holds the per-city outcomes (largest first).
	cities []cityBalance
	// totalDemandCores and totalAllocatedCores aggregate over cities.
	totalDemandCores, totalAllocatedCores float64
	// idleSats counts satellites with no city in their footprint.
	idleSats int
	// fleetUtilization is allocated cores / fleet cores.
	fleetUtilization float64
}

// satisfiedFraction returns the demand-weighted satisfaction.
func (r balanceReport) satisfiedFraction() float64 {
	return satisfied(r.totalAllocatedCores, r.totalDemandCores)
}

// worstCity returns the city with the lowest satisfaction (ties: largest
// demand).
func (r balanceReport) worstCity() (cityBalance, bool) {
	if len(r.cities) == 0 {
		return cityBalance{}, false
	}
	worst := r.cities[0]
	for _, cb := range r.cities[1:] {
		wf, cf := worst.satisfiedFraction(), cb.satisfiedFraction()
		if cf < wf || (cf == wf && cb.demandCores > worst.demandCores) {
			worst = cb
		}
	}
	return worst, true
}

// balance allocates the fleet's cores to the footprints' cities.
// Allocation is proportional water-filling: in each round every satellite
// splits its remaining capacity among its unsatisfied visible cities in
// proportion to their residual demand; a few rounds converge to within a
// fraction of a core.
func balance(fp footprints, spec compute.ServerSpec, d coreDemand) (balanceReport, error) {
	if err := spec.Validate(); err != nil {
		return balanceReport{}, err
	}
	if err := d.validate(); err != nil {
		return balanceReport{}, err
	}
	residual := make([]float64, len(fp.top))
	allocated := make([]float64, len(fp.top))
	var totalDemand float64
	for i, city := range fp.top {
		residual[i] = d.cityCores(city.Population)
		totalDemand += residual[i]
	}
	capLeft := make([]float64, len(fp.visible))
	for sat := range capLeft {
		capLeft[sat] = spec.EffectiveCores()
	}

	const rounds = 6
	for round := 0; round < rounds; round++ {
		moved := false
		for sat, visible := range fp.visible {
			if capLeft[sat] <= 1e-9 || len(visible) == 0 {
				continue
			}
			var want float64
			for _, ci := range visible {
				want += residual[ci]
			}
			if want <= 1e-9 {
				continue
			}
			give := min(capLeft[sat], want)
			for _, ci := range visible {
				share := give * residual[ci] / want
				if share <= 0 {
					continue
				}
				allocated[ci] += share
				residual[ci] -= share
				capLeft[sat] -= share
				moved = true
			}
		}
		if !moved {
			break
		}
	}

	rep := balanceReport{totalDemandCores: totalDemand}
	for i, city := range fp.top {
		rep.cities = append(rep.cities, cityBalance{
			name:           city.Name,
			demandCores:    allocated[i] + residual[i],
			allocatedCores: allocated[i],
			visibleSats:    fp.inView[i],
		})
		rep.totalAllocatedCores += allocated[i]
	}
	rep.fleetUtilization = rep.totalAllocatedCores / (float64(len(fp.visible)) * spec.EffectiveCores())
	for _, visible := range fp.visible {
		if len(visible) == 0 {
			rep.idleSats++
		}
	}
	return rep, nil
}
