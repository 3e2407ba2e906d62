package obs

// Self-contained HTML timeline report: one inline-SVG chart per series,
// no external scripts or styles, so the file can be archived next to a
// BENCH_*.json and opened years later. Counters plot as rates, gauges as
// levels, quantile sketches as p50 and p99 curves.

import (
	"bufio"
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"
)

// htmlSeries is one chart: a named sequence of (t, v) plus an optional
// second curve (quantile p99 over p50).
type htmlSeries struct {
	title  string
	unit   string
	t      []float64
	v      []float64 // primary curve
	v2     []float64 // secondary curve (NaN where absent)
	legend [2]string
}

// WriteFramesHTML renders frames as a standalone HTML report.
func WriteFramesHTML(w io.Writer, title string, frames []Frame) error {
	series := buildHTMLSeries(frames)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>%s</title>
<style>
body{font:13px/1.4 system-ui,sans-serif;margin:24px;background:#fafafa;color:#222}
h1{font-size:18px} .grid{display:flex;flex-wrap:wrap;gap:12px}
.card{background:#fff;border:1px solid #ddd;border-radius:6px;padding:8px 10px}
.card h2{font-size:12px;margin:0 0 4px;font-weight:600;word-break:break-all}
.meta{color:#777;font-size:11px}
svg{display:block} .l1{stroke:#2563eb} .l2{stroke:#dc2626}
</style></head><body>
<h1>%s</h1>
`, html.EscapeString(title), html.EscapeString(title))
	if len(frames) > 0 {
		fmt.Fprintf(bw, `<p class="meta">%d frames, t = %g s … %g s, %d series</p>`+"\n",
			len(frames), frames[0].TSec, frames[len(frames)-1].TSec, len(series))
	} else {
		fmt.Fprintln(bw, `<p class="meta">empty timeline</p>`)
	}
	fmt.Fprintln(bw, `<div class="grid">`)
	for _, s := range series {
		writeChart(bw, s)
	}
	fmt.Fprintln(bw, `</div></body></html>`)
	return bw.Flush()
}

func buildHTMLSeries(frames []Frame) []htmlSeries {
	type acc struct {
		s    htmlSeries
		seen int
	}
	byKey := map[string]*acc{}
	var order []string
	for _, fr := range frames {
		for _, p := range fr.Points {
			key := p.Name + "\xff" + labelKey(sortedLabelValues(p.Labels))
			a, ok := byKey[key]
			if !ok {
				title := p.Name
				if len(p.Labels) > 0 {
					title += "{" + csvLabels(p.Labels) + "}"
				}
				a = &acc{s: htmlSeries{title: title}}
				switch p.Kind {
				case KindGauge:
					a.s.unit, a.s.legend = "level", [2]string{"value", ""}
				case KindCounter:
					a.s.unit, a.s.legend = "per second", [2]string{"rate", ""}
				case KindQuantile:
					a.s.unit, a.s.legend = "value", [2]string{"p50", "p99"}
				}
				byKey[key] = a
				order = append(order, key)
			}
			v, v2 := math.NaN(), math.NaN()
			switch p.Kind {
			case KindGauge:
				v = p.Value
			case KindCounter:
				v = p.Rate
			case KindQuantile:
				for _, qp := range p.Quantiles {
					if qp.P == 0.5 {
						v = qp.Value
					}
					if qp.P == 0.99 {
						v2 = qp.Value
					}
				}
			}
			a.s.t = append(a.s.t, fr.TSec)
			a.s.v = append(a.s.v, v)
			a.s.v2 = append(a.s.v2, v2)
		}
	}
	out := make([]htmlSeries, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k].s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].title < out[j].title })
	return out
}

const chartW, chartH, padX, padY = 300, 70, 4, 6

func writeChart(w io.Writer, s htmlSeries) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range s.v {
		for _, v := range []float64{s.v[i], s.v2[i]} {
			if !math.IsNaN(v) {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
		}
	}
	if lo > hi { // no finite points at all
		lo, hi = 0, 1
	}
	if hi == lo {
		hi = lo + 1
	}
	fmt.Fprintf(w, `<div class="card"><h2>%s</h2>`+"\n", html.EscapeString(s.title))
	fmt.Fprintf(w, `<svg width="%d" height="%d" viewBox="0 0 %d %d">`, chartW, chartH, chartW, chartH)
	writePolyline(w, s, s.v, lo, hi, "l1")
	if s.legend[1] != "" {
		writePolyline(w, s, s.v2, lo, hi, "l2")
	}
	fmt.Fprint(w, `</svg>`)
	last := lastFinite(s.v)
	label := fmt.Sprintf("min %s · max %s · last %s %s", fmtShort(lo), fmtShort(hi), fmtShort(last), s.unit)
	if s.legend[1] != "" {
		label = fmt.Sprintf("p50 last %s · p99 last %s · max %s %s",
			fmtShort(last), fmtShort(lastFinite(s.v2)), fmtShort(hi), s.unit)
	}
	fmt.Fprintf(w, "\n<div class=\"meta\">%s</div></div>\n", html.EscapeString(label))
}

func writePolyline(w io.Writer, s htmlSeries, vs []float64, lo, hi float64, class string) {
	t0, t1 := s.t[0], s.t[len(s.t)-1]
	if t1 == t0 {
		t1 = t0 + 1
	}
	var b strings.Builder
	n := 0
	for i, v := range vs {
		if math.IsNaN(v) {
			continue
		}
		x := padX + (s.t[i]-t0)/(t1-t0)*(chartW-2*padX)
		y := float64(chartH-padY) - (v-lo)/(hi-lo)*(chartH-2*padY)
		fmt.Fprintf(&b, "%.1f,%.1f ", x, y)
		n++
	}
	if n == 0 {
		return
	}
	fmt.Fprintf(w, `<polyline class="%s" fill="none" stroke-width="1.5" points="%s"/>`, class, strings.TrimSpace(b.String()))
}

func lastFinite(vs []float64) float64 {
	for i := len(vs) - 1; i >= 0; i-- {
		if !math.IsNaN(vs[i]) {
			return vs[i]
		}
	}
	return math.NaN()
}

// fmtShort renders a value compactly for chart captions.
func fmtShort(v float64) string {
	switch {
	case math.IsNaN(v):
		return "—"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
