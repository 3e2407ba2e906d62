// Command latencymap renders a world map of in-orbit edge latency: for
// each grid cell, the RTT to the nearest satellite-server and how many
// servers are in view. Output is a CSV grid plus an ASCII heat map — the
// "compute wherever you want" picture of §3.1 at a glance.
//
// Usage:
//
//	latencymap -name starlink -step 5 -out latency.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/units"
	"repro/internal/visibility"
)

type options struct {
	name    string
	stepDeg float64
	atSec   float64
	outPath string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("latencymap", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.name, "name", "starlink", "constellation: starlink, kuiper, telesat")
	fs.Float64Var(&o.stepDeg, "step", 5, "grid step in degrees, 0.1 to 30")
	fs.Float64Var(&o.atSec, "t", 0, "snapshot time (seconds after epoch)")
	fs.StringVar(&o.outPath, "out", "", "optional CSV output path")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !units.Finite(o.stepDeg, o.atSec) {
		return o, fmt.Errorf("-step and -t must be finite")
	}
	// The CSV prints lat/lon to 0.1°, so a finer grid only repeats rows,
	// and its row buffer (360/step cells) can outgrow memory.
	if o.stepDeg < 0.1 || o.stepDeg > 30 {
		return o, fmt.Errorf("step %v out of [0.1,30]", o.stepDeg)
	}
	return o, nil
}

// glyph maps a cell's nearest-server RTT to a heat-map character.
func glyph(rttMs float64, covered bool) byte {
	switch {
	case !covered:
		return '.'
	case rttMs < 5:
		return '#'
	case rttMs < 8:
		return '+'
	case rttMs < 12:
		return '-'
	default:
		return ' '
	}
}

// run sweeps the lat/lon grid and writes the ASCII heat map to out and, when
// csv is non-nil, the per-cell rows.
func run(out, csv io.Writer, o options) error {
	c, err := constellation.Preset(o.name)
	if err != nil {
		return err
	}
	obs := visibility.NewObserver(c)
	snap := c.Snapshot(o.atSec)

	if csv != nil {
		fmt.Fprintln(csv, "lat,lon,nearest_rtt_ms,reachable")
	}

	fmt.Fprintf(out, "%s at t=%.0fs — nearest-server RTT: '#'<5ms '+'<8ms '-'<12ms ' '>=12ms '.'=uncovered\n",
		c.Name, o.atSec)
	covered, total := 0, 0
	for lat := 90.0; lat >= -90; lat -= o.stepDeg {
		row := make([]byte, 0, int(360/o.stepDeg)+1)
		for lon := -180.0; lon <= 180; lon += o.stepDeg {
			g := geo.LatLon{LatDeg: lat, LonDeg: lon}.ECEF()
			_, slant, ok := obs.Nearest(g, snap)
			rtt := 0.0
			if ok {
				rtt = units.RTTMs(slant)
				covered++
			}
			total++
			row = append(row, glyph(rtt, ok))
			if csv != nil {
				n := obs.CountReachable(g, snap)
				fmt.Fprintf(csv, "%.1f,%.1f,%.3f,%d\n", lat, lon, rtt, n)
			}
		}
		fmt.Fprintf(out, "%6.1f |%s|\n", lat, row)
	}
	fmt.Fprintf(out, "coverage: %.1f%% of grid cells see at least one satellite-server\n",
		100*float64(covered)/float64(total))
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fatal(err)
	}
	var csv io.Writer
	if o.outPath != "" {
		f, err := os.Create(o.outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		csv = w
	}
	if err := run(os.Stdout, csv, o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "latencymap:", err)
	os.Exit(1)
}
