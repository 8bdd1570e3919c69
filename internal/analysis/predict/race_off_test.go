//go:build !race

package predict_test

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
