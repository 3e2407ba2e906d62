package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"

	"repro/internal/obs"
)

// figTiming is one figure's wall-time and work volume in a run.
type figTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Samples is the number of parallelFor sweep iterations the figure
	// consumed (0 for table-only figures that don't sweep).
	Samples uint64 `json:"samples"`
}

// runInfo is the machine-readable run artifact (results/runinfo.json):
// per-figure durations and sample counts plus enough Go/host metadata to
// compare runs across machines and commits.
type runInfo struct {
	GeneratedUnix   int64       `json:"generated_unix"`
	GoVersion       string      `json:"go_version"`
	GOOS            string      `json:"goos"`
	GOARCH          string      `json:"goarch"`
	NumCPU          int         `json:"num_cpu"`
	Hostname        string      `json:"hostname,omitempty"`
	Fast            bool        `json:"fast"`
	Figures         []figTiming `json:"figures"`
	TotalSeconds    float64     `json:"total_seconds"`
	SweepIterations uint64      `json:"sweep_iterations"`

	// Shared-ephemeris cache outcome for the whole run: how many snapshot
	// requests were served from cached frames vs propagated fresh.
	EphemCacheHits   uint64 `json:"ephem_cache_hits"`
	EphemCacheMisses uint64 `json:"ephem_cache_misses"`

	// Frozen-graph routing activity: topology freezes (one per queried
	// snapshot), their summed directed edge counts, and routing queries
	// served from frozen CSR adjacency.
	NetgraphFreezes     uint64 `json:"netgraph_freezes"`
	NetgraphFrozenEdges uint64 `json:"netgraph_frozen_edges"`
	NetgraphQueries     uint64 `json:"netgraph_queries"`

	// Flight-recorder outcome: one timeline frame per figure, plus the
	// streaming point-to-point routing-query latency estimates (ms) at the
	// end of the run and the SLO verdicts over the recorded frames.
	TimelineFrames int          `json:"timeline_frames,omitempty"`
	PathQueryP50Ms float64      `json:"netgraph_path_ms_p50,omitempty"`
	PathQueryP95Ms float64      `json:"netgraph_path_ms_p95,omitempty"`
	PathQueryP99Ms float64      `json:"netgraph_path_ms_p99,omitempty"`
	SLOs           []sloSummary `json:"slos,omitempty"`
}

// sloSummary is the compact runinfo form of one SLO verdict.
type sloSummary struct {
	Name       string  `json:"name"`
	Met        bool    `json:"met"`
	Compliance float64 `json:"compliance"`
}

func newRunInfo(fast bool) runInfo {
	host, _ := os.Hostname()
	return runInfo{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Hostname:  host,
		Fast:      fast,
	}
}

func writeRunInfo(path string, info runInfo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(info)
}

// printTimingTable renders the per-figure timing summary on stderr (stdout
// carries the figures themselves).
func printTimingTable(info runInfo) {
	tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "figure\tseconds\tsamples")
	for _, ft := range info.Figures {
		fmt.Fprintf(tw, "%s\t%.2f\t%d\n", ft.Name, ft.Seconds, ft.Samples)
	}
	fmt.Fprintf(tw, "total\t%.2f\t%d\n", info.TotalSeconds, info.SweepIterations)
	tw.Flush()
}

// writeChromeTrace dumps the run's spans for about://tracing / Perfetto.
func writeChromeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteChromeTrace(f)
}
