// Command passpredict predicts satellite passes over a ground site: AOS,
// culmination, LOS, duration, and peak Doppler — the classic satellite-ops
// view, over any of the preset constellations or a single satellite.
//
// Usage:
//
//	passpredict -lat 47.38 -lon 8.54 -name starlink -sat 0 -hours 3
//	passpredict -lat 9.06 -lon 7.49 -name kuiper -next
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/plot"
	"repro/internal/units"
	"repro/internal/visibility"
)

type options struct {
	site  geo.LatLon
	name  string
	sat   int
	hours float64
	next  bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("passpredict", flag.ContinueOnError)
	var o options
	fs.Float64Var(&o.site.LatDeg, "lat", 47.38, "site latitude (degrees north)")
	fs.Float64Var(&o.site.LonDeg, "lon", 8.54, "site longitude (degrees east)")
	fs.StringVar(&o.name, "name", "starlink", "constellation: starlink, kuiper, telesat")
	fs.IntVar(&o.sat, "sat", 0, "satellite ID to predict passes for")
	fs.Float64Var(&o.hours, "hours", 3, "prediction horizon")
	fs.BoolVar(&o.next, "next", false, "just report the next pass of any satellite")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !units.Finite(o.site.LatDeg, o.site.LonDeg, o.hours) {
		return o, fmt.Errorf("-lat, -lon and -hours must be finite")
	}
	if !o.site.Valid() {
		return o, fmt.Errorf("invalid site %v", o.site)
	}
	if o.hours <= 0 {
		return o, fmt.Errorf("hours %v must be positive", o.hours)
	}
	return o, nil
}

func run(out io.Writer, o options) error {
	c, err := constellation.Preset(o.name)
	if err != nil {
		return err
	}
	obs := visibility.NewObserver(c)
	ground := o.site.ECEF()
	horizon := o.hours * 3600

	if o.next {
		w, ok, err := obs.NextPassAny(ground, 0, horizon, 10)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Fprintf(out, "no pass over %v within %.1f h\n", o.site, o.hours)
			return nil
		}
		fmt.Fprintf(out, "next pass over %v: %s (sat %d)\n", o.site, c.Satellites[w.SatID].Name(c.Shells), w.SatID)
		return printPasses(out, c, obs, ground, []visibility.PassWindow{w})
	}

	if o.sat < 0 || o.sat >= c.Size() {
		return fmt.Errorf("satellite %d out of [0,%d)", o.sat, c.Size())
	}
	ws, err := obs.PassWindows(ground, o.sat, 0, horizon, 10)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s over %v, next %.1f h: %d passes\n",
		c.Satellites[o.sat].Name(c.Shells), o.site, o.hours, len(ws))
	return printPasses(out, c, obs, ground, ws)
}

func printPasses(out io.Writer, c *constellation.Constellation, obs *visibility.Observer, ground geo.Vec3, ws []visibility.PassWindow) error {
	const kaHz = 20e9
	var rows [][]string
	for _, w := range ws {
		dop, err := obs.DopplerShiftHz(ground, w.SatID, w.AOSSec+1, kaHz)
		if err != nil {
			dop = 0
		}
		rows = append(rows, []string{
			hms(w.AOSSec),
			hms(w.MaxElevationSec),
			hms(w.LOSSec),
			fmt.Sprintf("%.0f s", w.DurationSec()),
			fmt.Sprintf("%.1f°", w.MaxElevationDeg),
			fmt.Sprintf("%+.0f kHz", dop/1000),
		})
	}
	return plot.Table(out, []string{"AOS", "culmination", "LOS", "duration", "max elev", "AOS Doppler @20GHz"}, rows)
}

func hms(t float64) string {
	s := int(t)
	return fmt.Sprintf("%02d:%02d:%02d", s/3600, (s/60)%60, s%60)
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fatal(err)
	}
	if err := run(os.Stdout, o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "passpredict:", err)
	os.Exit(1)
}
