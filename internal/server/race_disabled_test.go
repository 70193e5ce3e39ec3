//go:build !race

package server

// raceEnabled reports whether the test binary runs under the race
// detector, whose runtime makes allocations of its own.
const raceEnabled = false
