//go:build !race

package sched

// raceEnabled skips allocation-count tests: the race detector's
// instrumentation allocates on its own.
const raceEnabled = false
