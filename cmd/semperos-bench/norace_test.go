//go:build !race

package main

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
