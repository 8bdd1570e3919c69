//go:build race

package explore_test

// raceEnabled reports that this test binary was built with -race. The
// static-prediction cross-check explores every micro one schedule at a
// time and type-checks the benchmark packages; under the race detector
// that multiplies runtime without exercising any concurrency, so it
// skips and the jobs-determinism tests carry the -race coverage.
const raceEnabled = true
