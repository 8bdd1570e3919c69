//go:build !race

package explore_test

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
