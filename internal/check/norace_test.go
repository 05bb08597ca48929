//go:build !race

package check

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
