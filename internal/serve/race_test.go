//go:build race

package serve

// raceEnabled gates the one test sized past what the race detector's
// slowdown makes reasonable (TestPulledHourStaysSmall).
const raceEnabled = true
