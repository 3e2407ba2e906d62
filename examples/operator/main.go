// Operator: the constellation operator's dashboard view of the in-orbit
// cloud. Brings together the extension models: fleet supply vs urban
// demand, the idle southern fleet, weather-limited availability per
// climate, and route stability — the quantities an operator would actually
// watch before selling "compute above the clouds".
package main

import (
	"fmt"
	"log"

	"os"
	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/experiments"
	"repro/internal/plot"
	"repro/internal/weather"
)

func main() {
	fmt.Println("=== In-orbit cloud: operator dashboard ===")

	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Fleet balance at 5% adoption.
	balance, err := experiments.CapacityStudy([]float64{0.05}, 500)
	if err != nil {
		log.Fatal(err)
	}
	rep := balance[0]
	fmt.Printf("\nfleet: %d satellite-servers, %.0f cores total\n",
		c.Size(), float64(c.Size())*compute.DefaultServerSpec().EffectiveCores())
	fmt.Printf("urban demand (top 500 cities, 5%% adoption): %.0f cores\n", rep.DemandCores)
	fmt.Printf("servable now: %.1f%% of demand | fleet utilization %.1f%% | %d satellites idle (%.0f%%)\n",
		rep.SatisfiedPct, rep.FleetUtilPct,
		rep.IdleSats, 100*float64(rep.IdleSats)/float64(c.Size()))
	fmt.Printf("tightest market: %s — %.0f%% of %.0f demanded cores served by %d sats in view\n",
		rep.WorstCity, rep.WorstSatisfiedPct, rep.WorstDemandCores, rep.WorstVisibleSats)

	// 2. Weather exposure per climate zone.
	fmt.Println("\nweather exposure (Ka user links):")
	rows, err := experiments.WeatherStudy([]float64{8})
	if err != nil {
		log.Fatal(err)
	}
	var wt [][]string
	for _, r := range rows {
		wt = append(wt, []string{
			r.Climate,
			fmt.Sprintf("%.1f mm/h", r.OutageMmH),
			fmt.Sprintf("%.3f%%", r.Availability*100),
			fmt.Sprintf("%.1f h/yr", (1-r.Availability)*8760),
		})
	}
	if err := plot.Table(os.Stdout, []string{"climate", "outage rain", "availability", "downtime"}, wt); err != nil {
		log.Fatal(err)
	}

	// 3. Route stability for transit customers.
	fmt.Println("\ntransit route stability (30 min monitored):")
	churn, err := experiments.ChurnStudy(1800, 15)
	if err != nil {
		log.Fatal(err)
	}
	var ct [][]string
	for _, r := range churn {
		ct = append(ct, []string{
			r.Name,
			fmt.Sprintf("%.0f s", r.MedianPathLifeS),
			fmt.Sprintf("%.1f ms", r.MeanLatencyMs),
			fmt.Sprintf("%.1f ms", r.JitterMs),
			fmt.Sprintf("%.2fx", r.Stretch),
		})
	}
	if err := plot.Table(os.Stdout, []string{"route", "median path life", "mean one-way", "jitter", "stretch"}, ct); err != nil {
		log.Fatal(err)
	}

	// 4. The headline sales pitch, quantified.
	l := weather.Link{Band: weather.KaBand, MarginDB: 8}
	tropAvail, err := weather.ComputeAvailability(l, weather.Tropical, []float64{55})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsummary: sell %d-server coverage everywhere; plan %.1f%% weather downtime in the tropics;\n",
		c.Size(), (1-tropAvail)*100)
	fmt.Println("         43% of the fleet is idle over oceans — exactly the §3.3 opportunistic-processing capacity.")
}
