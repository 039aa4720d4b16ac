//go:build race

package bench

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
