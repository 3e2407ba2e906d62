//go:build race

package serve

// raceEnabled shrinks or skips the tests sized past what the race
// detector's slowdown makes reasonable (TestPulledHourStaysSmall,
// TestGenerateMatchesSortOracle, TestFeedSharesTrace, the ring oracle's
// walk).
const raceEnabled = true
