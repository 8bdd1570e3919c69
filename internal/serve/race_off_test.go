//go:build !race

package serve

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
