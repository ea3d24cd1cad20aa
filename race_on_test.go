//go:build race

package ceres

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
