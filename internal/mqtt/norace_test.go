//go:build !race

package mqtt

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
