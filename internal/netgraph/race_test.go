//go:build race

package netgraph

// raceEnabled skips allocation counts: under the race detector sync.Pool
// drops a share of its Puts, so pooled queries allocate fresh contexts.
const raceEnabled = true
