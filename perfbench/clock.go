package main

import "time"

// The benchmark times the program on the wall clock. Every clock read and
// sleep goes through these two variables, so the noclock rule's exemption
// for this benchmark sits in one place.

//lint:ignore noclock the benchmark measures wall time
var wallNow = time.Now

//lint:ignore noclock the open-loop generator waits for each arrival's due time
var sleep = time.Sleep

// sinceMs is the wall time since t0 in milliseconds.
func sinceMs(t0 time.Time) float64 {
	return float64(wallNow().Sub(t0)) / float64(time.Millisecond)
}
