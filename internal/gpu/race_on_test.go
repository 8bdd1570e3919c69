//go:build race

package gpu

// raceEnabled reports that this test binary was built with -race. The race
// runtime allocates on its own, so allocation gates skip under it.
const raceEnabled = true
