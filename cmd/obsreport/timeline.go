package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/obs"
	"repro/internal/plot"
)

// seriesSummary accumulates one series (family + label set) across frames.
type seriesSummary struct {
	name   string
	labels string
	kind   obs.Kind

	frames   int
	total    float64 // summed deltas (counter/quantile counts)
	maxRate  float64
	last     float64 // last gauge level
	min, max float64 // gauge extremes
	lastQ    []obs.QuantilePoint
}

// timelineReport reads a JSONL export, prints the per-series summary, and
// optionally re-renders it as HTML and/or CSV.
func timelineReport(out io.Writer, path, htmlOut, csvOut, title string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	frames, err := obs.ReadFramesJSONL(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(frames) == 0 {
		return fmt.Errorf("%s: no frames", path)
	}

	span := frames[len(frames)-1].TSec - frames[0].TSec
	fmt.Fprintf(out, "timeline %s — %d frames over %gs\n\n", path, len(frames), span)
	if err := plot.Table(out, []string{"series", "kind", "frames", "summary"},
		summarise(frames)); err != nil {
		return err
	}

	if htmlOut != "" {
		if err := renderTo(htmlOut, func(w io.Writer) error {
			return obs.WriteFramesHTML(w, title, frames)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", htmlOut)
	}
	if csvOut != "" {
		if err := renderTo(csvOut, func(w io.Writer) error {
			return obs.WriteFramesCSV(w, frames)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", csvOut)
	}
	return nil
}

func renderTo(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// summarise folds the frames into one table row per series.
func summarise(frames []obs.Frame) [][]string {
	byKey := map[string]*seriesSummary{}
	var order []string
	for _, fr := range frames {
		for _, p := range fr.Points {
			key := p.Name + "\xff" + labelString(p.Labels)
			s := byKey[key]
			if s == nil {
				s = &seriesSummary{name: p.Name, labels: labelString(p.Labels), kind: p.Kind,
					min: math.Inf(1), max: math.Inf(-1)}
				byKey[key] = s
				order = append(order, key)
			}
			s.frames++
			switch p.Kind {
			case obs.KindGauge:
				s.last = p.Value
				s.min = math.Min(s.min, p.Value)
				s.max = math.Max(s.max, p.Value)
			default:
				s.total += p.Value
				s.maxRate = math.Max(s.maxRate, p.Rate)
				if len(p.Quantiles) > 0 {
					s.lastQ = p.Quantiles
				}
			}
		}
	}
	sort.Strings(order)
	rows := make([][]string, 0, len(order))
	for _, key := range order {
		s := byKey[key]
		name := s.name
		if s.labels != "" {
			name += "{" + s.labels + "}"
		}
		rows = append(rows, []string{name, string(s.kind), fmt.Sprint(s.frames), s.text()})
	}
	return rows
}

// text renders the kind-appropriate one-line summary.
func (s *seriesSummary) text() string {
	switch s.kind {
	case obs.KindGauge:
		return fmt.Sprintf("last %g (min %g, max %g)", s.last, s.min, s.max)
	case obs.KindCounter:
		return fmt.Sprintf("total %g (peak rate %.4g/s)", s.total, s.maxRate)
	default: // quantile
		line := fmt.Sprintf("count %g", s.total)
		for _, qp := range s.lastQ {
			line += fmt.Sprintf(", p%g %.4g", qp.P*100, qp.Value)
		}
		return line
	}
}

func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += k + "=" + labels[k]
	}
	return out
}
