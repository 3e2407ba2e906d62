// Command constellation inspects the preset LEO constellations: shell
// tables, instantaneous positions, ISL topology statistics, and TLE export
// for interoperability with external satellite tooling.
//
// Usage:
//
//	constellation -name starlink -info
//	constellation -name kuiper -tle > kuiper.tle
//	constellation -name starlink -snapshot 600 | head
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/plot"
	"repro/internal/tle"
	"repro/internal/units"
)

func main() {
	var (
		name     = flag.String("name", "starlink", "constellation: starlink, kuiper, telesat")
		info     = flag.Bool("info", false, "print the shell table and ISL statistics")
		exportT  = flag.Bool("tle", false, "export the constellation as a TLE catalog to stdout")
		snapshot = flag.Float64("snapshot", -1, "print per-satellite subpoints at t seconds after epoch")
	)
	flag.Parse()

	c, err := constellation.Preset(*name)
	if err != nil {
		fatal(err)
	}
	any := false
	if *info {
		any = true
		if err := printInfo(os.Stdout, c); err != nil {
			fatal(err)
		}
	}
	if *exportT {
		any = true
		if err := exportTLE(os.Stdout, c); err != nil {
			fatal(err)
		}
	}
	// A negative -snapshot is off; NaN and ±Inf go to printSnapshot, which
	// refuses them.
	if *snapshot >= 0 || !units.Finite(*snapshot) {
		any = true
		if err := printSnapshot(os.Stdout, c, *snapshot); err != nil {
			fatal(err)
		}
	}
	if !any {
		if err := printInfo(os.Stdout, c); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "constellation:", err)
	os.Exit(1)
}

func printInfo(out io.Writer, c *constellation.Constellation) error {
	fmt.Fprintf(out, "%s: %d satellites, %d shells\n\n", c.Name, c.Size(), len(c.Shells))
	var rows [][]string
	for _, sh := range c.Shells {
		rows = append(rows, []string{
			sh.Name,
			fmt.Sprintf("%.0f km", sh.AltitudeKm),
			fmt.Sprintf("%.1f°", sh.InclinationDeg),
			fmt.Sprintf("%d x %d", sh.Planes, sh.SatsPerPlane),
			fmt.Sprintf("%d", sh.Count()),
			fmt.Sprintf("%.0f°", sh.MinElevationDeg),
			fmt.Sprintf("%.1f min", units.OrbitalPeriodSec(sh.AltitudeKm)/60),
			fmt.Sprintf("%.2f km/s", units.OrbitalVelocityKmS(sh.AltitudeKm)),
		})
	}
	if err := plot.Table(out, []string{
		"shell", "altitude", "inclination", "planes x sats", "total", "min elev", "period", "velocity",
	}, rows); err != nil {
		return err
	}

	grid := isl.NewPlusGrid(c)
	stats, err := grid.StatsAt(c.Snapshot(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n+grid ISLs: %d links, degree %d-%d, length %.0f-%.0f km (mean %.0f, %.2f ms)\n",
		stats.Links, stats.MinDegree, stats.MaxDegree, stats.MinKm, stats.MaxKm, stats.MeanKm, stats.MeanLatencyMs)
	return nil
}

func exportTLE(out io.Writer, c *constellation.Constellation) error {
	_, err := io.WriteString(out, tle.EncodeAll(c.ExportTLEs(90000, 20, 310.0)))
	return err
}

func printSnapshot(out io.Writer, c *constellation.Constellation, tSec float64) error {
	if !units.Finite(tSec) {
		return fmt.Errorf("-snapshot must be finite, got %v", tSec)
	}
	w := bufio.NewWriter(out)
	defer w.Flush()
	if _, err := fmt.Fprintln(w, "id,shell,plane,slot,lat,lon,alt_km"); err != nil {
		return err
	}
	snap := c.Snapshot(tSec)
	for id, pos := range snap {
		ll := geo.FromECEF(pos)
		sat := c.Satellites[id]
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%.3f,%.3f,%.1f\n",
			id, c.Shells[sat.ShellIndex].Name, sat.Plane, sat.Slot, ll.LatDeg, ll.LonDeg, ll.AltKm); err != nil {
			return err
		}
	}
	return nil
}
