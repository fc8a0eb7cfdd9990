// Package policy is the sim side of the fixture: it seeds one drift of
// each kind the vocab rule reports.
package policy

import (
	"vocabmod/internal/obs"
	"vocabmod/internal/trace"
)

// Outcomes references both reasons, so the sim side is fully spoken.
func Outcomes() []string {
	return []string{trace.ReasonDeadline, trace.ReasonCanceled}
}

// Register spells a family name as a literal: flagged.
func Register(r *obs.Registry) int {
	return r.Counter("split_preemptions_total")
}

// Kind types a string literal as trace.EventKind: flagged.
func Kind() trace.EventKind {
	var k trace.EventKind = "grant"
	return k
}
