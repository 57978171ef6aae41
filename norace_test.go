//go:build !race

package hdvideobench

// raceEnabled reports a build with the race detector, whose
// instrumentation makes wall-clock comparisons meaningless.
const raceEnabled = false
