//go:build race

package serve

// raceEnabled reports that this test binary was built with -race, under
// which allocation gates skip: the race detector's instrumentation
// allocates.
const raceEnabled = true
