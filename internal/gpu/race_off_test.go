//go:build !race

package gpu

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
