//go:build race

package policy_test

// raceEnabled skips allocation-count tests: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
