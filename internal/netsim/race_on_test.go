//go:build race

package netsim

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation stretches wake-up latencies past what the tests bound.
const raceEnabled = true
