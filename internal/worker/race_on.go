//go:build race

package worker

// raceEnabled reports whether the binary was built with -race: the pool then
// checks that no function body wrote to an argument buffer (Pool.execute).
const raceEnabled = true
