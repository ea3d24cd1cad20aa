//go:build !race

package bench

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
