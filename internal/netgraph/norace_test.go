//go:build !race

package netgraph

const raceEnabled = false
