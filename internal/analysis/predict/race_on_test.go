//go:build race

package predict_test

// raceEnabled reports that this test binary was built with -race, under
// which the tests that record whole apps skip: they are single-threaded
// compute that the race detector slows many times over.
const raceEnabled = true
