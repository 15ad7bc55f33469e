//go:build !race

package mactest

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
