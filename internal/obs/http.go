package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
)

// ServeHTTP exposes the registry at its mount point: Prometheus text by
// default, JSON with ?format=json. Scrape hooks (OnScrape) run first, so
// pull-style collectors like RuntimeMetrics are fresh at scrape time.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.runScrapeHooks()
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// DebugOption extends DebugMux with optional surfaces.
type DebugOption func(*debugConf)

type debugConf struct {
	tl   *Timeline
	slos []SLO
}

// WithTimeline mounts the flight recorder at /timeline (JSONL by default;
// ?format=csv and ?format=html select the other exports).
func WithTimeline(tl *Timeline) DebugOption { return func(c *debugConf) { c.tl = tl } }

// WithSLOs mounts /slo, evaluating the objectives against the timeline
// configured via WithTimeline on every request (text; ?format=json).
func WithSLOs(slos ...SLO) DebugOption {
	return func(c *debugConf) { c.slos = append(c.slos, slos...) }
}

// DebugMux builds the standard debug surface for a daemon:
//
//	/metrics        the registry (Prometheus text; ?format=json for JSON)
//	/healthz        liveness ("ok")
//	/timeline       flight-recorder frames (with WithTimeline; ?format=csv|html)
//	/slo            SLO compliance report (with WithTimeline + WithSLOs; ?format=json)
//	/debug/vars     expvar
//	/debug/pprof/*  net/http/pprof profiles
//
// Mount it on a loopback or otherwise access-controlled listener: pprof and
// expvar expose process internals.
func DebugMux(reg *Registry, opts ...DebugOption) *http.ServeMux {
	var conf debugConf
	for _, o := range opts {
		o(&conf)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if conf.tl != nil {
		mux.HandleFunc("/timeline", func(w http.ResponseWriter, req *http.Request) {
			switch req.URL.Query().Get("format") {
			case "csv":
				w.Header().Set("Content-Type", "text/csv; charset=utf-8")
				_ = conf.tl.WriteCSV(w)
			case "html":
				w.Header().Set("Content-Type", "text/html; charset=utf-8")
				_ = conf.tl.WriteHTML(w, "timeline")
			default:
				w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
				_ = conf.tl.WriteJSONL(w)
			}
		})
		if len(conf.slos) > 0 {
			mux.HandleFunc("/slo", func(w http.ResponseWriter, req *http.Request) {
				results := EvalSLOs(conf.tl, conf.slos...)
				if req.URL.Query().Get("format") == "json" {
					w.Header().Set("Content-Type", "application/json; charset=utf-8")
					enc := json.NewEncoder(w)
					enc.SetIndent("", "  ")
					_ = enc.Encode(results)
					return
				}
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				_ = WriteSLOTable(w, results)
			})
		}
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// RuntimeMetrics is a set of Go runtime gauges (goroutines, live heap
// bytes). RegisterRuntimeMetrics hooks Collect into the registry's scrape
// path, so /metrics always serves fresh values; call Collect directly only
// when reading the gauges without a scrape.
type RuntimeMetrics struct {
	goroutines *Gauge
	heapAlloc  *Gauge
}

// RegisterRuntimeMetrics registers the go_* gauge families on reg and
// installs a pre-scrape hook that refreshes them (once per registry, no
// matter how often it is called).
func RegisterRuntimeMetrics(reg *Registry) *RuntimeMetrics {
	m := &RuntimeMetrics{
		goroutines: reg.Gauge("go_goroutines", "Number of live goroutines."),
		heapAlloc:  reg.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects."),
	}
	reg.hookMu.Lock()
	hooked := reg.runtimeHooked
	reg.runtimeHooked = true
	reg.hookMu.Unlock()
	if !hooked {
		reg.OnScrape(m.Collect)
	}
	return m
}

// Collect refreshes the runtime gauges from runtime.ReadMemStats.
func (m *RuntimeMetrics) Collect() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.goroutines.Set(float64(runtime.NumGoroutine()))
	m.heapAlloc.Set(float64(ms.HeapAlloc))
}
