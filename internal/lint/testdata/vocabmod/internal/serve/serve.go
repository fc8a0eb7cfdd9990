// Package serve is the serving side of the fixture: serve-side vocabulary
// drift.
package serve

import (
	"vocabmod/internal/obs"
	"vocabmod/internal/trace"
)

// Drop references ReasonDeadline properly but spells "canceled" as a bare
// literal: the literal is flagged, and because a literal is not a
// reference, trace.ReasonCanceled is also flagged as unspoken here.
func Drop() string {
	_ = trace.ReasonDeadline
	return "canceled"
}

// Register references the canonical constant: clean.
func Register(r *obs.Registry) int {
	return r.Gauge(obs.MetricQueueDepth)
}

// RegisterPartition spells a partition-lane family as a literal: flagged —
// the spatial-sharing families obey the same vocabulary discipline.
func RegisterPartition(r *obs.Registry) int {
	return r.Gauge("split_partition_width")
}
