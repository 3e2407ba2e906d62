// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Fig* function is parameterised by a scale config so the
// same code serves the full paper-scale run (cmd/figures) and the scaled
// benchmark harness (bench_test.go). Results come back as plot-ready series
// plus the summary quantities the paper quotes in prose.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/obs"
	"repro/internal/par"
)

// ConstellationSet names the constellations a sweep covers.
type ConstellationSet struct {
	Starlink bool
	Kuiper   bool
	Telesat  bool
}

// Both returns the paper's default pair: Starlink Phase I and Kuiper.
func Both() ConstellationSet { return ConstellationSet{Starlink: true, Kuiper: true} }

// build materialises the selected constellations in order. Presets are
// memoised process-wide so every figure sweeps the same constellation
// object and therefore shares one ephemeris engine (see engineFor):
// Fig 2 re-requests the instants Fig 1 propagated, Fig 5 the snapshot
// Fig 4 used, and so on across the whole suite.
func (cs ConstellationSet) build() ([]*constellation.Constellation, error) {
	var out []*constellation.Constellation
	for _, p := range []struct {
		on   bool
		name string
	}{{cs.Starlink, "starlink"}, {cs.Kuiper, "kuiper"}, {cs.Telesat, "telesat"}} {
		if !p.on {
			continue
		}
		c, err := pooledPreset(p.name)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty constellation set")
	}
	return out, nil
}

var (
	poolMu     sync.Mutex
	constPool  = map[string]*constellation.Constellation{}
	enginePool = map[*constellation.Constellation]*ephem.Engine{}
)

// pooledPreset returns the process-wide instance of a constellation.Preset.
func pooledPreset(name string) (*constellation.Constellation, error) {
	poolMu.Lock()
	defer poolMu.Unlock()
	if c, ok := constPool[name]; ok {
		return c, nil
	}
	c, err := constellation.Preset(name)
	if err != nil {
		return nil, err
	}
	constPool[name] = c
	return c, nil
}

// EphemStats sums cache statistics across the pooled per-constellation
// ephemeris engines — the figure runner reports it so a run shows how much
// propagation work the shared cache absorbed.
func EphemStats() ephem.Stats {
	poolMu.Lock()
	defer poolMu.Unlock()
	var total ephem.Stats
	for _, e := range enginePool {
		s := e.Stats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Frames += s.Frames
		total.PropagatedSats += s.PropagatedSats
	}
	return total
}

// engineFor returns the process-wide shared ephemeris engine for a
// constellation produced by build(). Safe for concurrent sweep workers.
func engineFor(c *constellation.Constellation) *ephem.Engine {
	poolMu.Lock()
	defer poolMu.Unlock()
	if e, ok := enginePool[c]; ok {
		return e
	}
	e := ephem.New(c, ephem.Config{})
	enginePool[c] = e
	return e
}

// progressDone counts completed parallelFor iterations process-wide; it is
// the progress signal a long cmd/figures run exposes (each latitude, group,
// or satellite sweep iteration bumps it once).
var (
	progressOnce sync.Once
	progressDone *obs.Counter
)

func progress() *obs.Counter {
	progressOnce.Do(func() {
		progressDone = obs.Default().Counter("experiments_parallelfor_iterations_total",
			"Completed parallelFor sweep iterations across all experiments.")
	})
	return progressDone
}

// Progress returns the cumulative number of sweep iterations completed by
// all experiments in this process; callers diff it around a run to get a
// sample count.
func Progress() uint64 { return progress().Value() }

// parallelFor runs fn(i) for i in [0,n) across CPUs, returning the error of
// the lowest failing index, and counts each iteration as sweep progress.
// Experiment sweeps are embarrassingly parallel across latitudes and user
// groups. Fan-outs that repeat over the same units (the session driver's
// per-window passes) call par.Each directly, or they would inflate the
// per-figure sample count.
func parallelFor(n int, fn func(i int) error) error {
	done := progress()
	return par.Each(n, par.Workers(), func(i int) error {
		err := fn(i)
		done.Inc()
		return err
	})
}
