package serve

import "lips/internal/trace"

// JobRef identifies one submission inside an epoch decision.
type JobRef struct {
	ID     int    `json:"id"`
	Tenant string `json:"tenant"`
}

// Deferral is a job the epoch did not serve, with the typed reason from
// the obs deferral taxonomy (fair-share-rank for queue leftovers the
// admission ranking passed over, no-capacity for admitted jobs the LP
// left entirely unlaunched).
type Deferral struct {
	JobRef
	Reason string `json:"reason"`
}

// maxDecisionRefs bounds the per-decision Admitted/Deferred lists so a
// 10k-job burst does not turn the ring into a memory hog; the *Count
// fields always carry the untruncated totals.
const maxDecisionRefs = 64

// EpochDecision is one entry of the /debug/epochs ring: what the epoch
// admitted, what it passed over and why, what the submit path shed since
// the previous epoch, and the scheduler's own view of the plan.
type EpochDecision struct {
	Epoch    int64   `json:"epoch"`
	SimStart float64 `json:"sim_start"`
	SimEnd   float64 `json:"sim_end"`
	// WallMS is the wall-clock cost of the simulator step (where the LP
	// solves live). Runtime-only: it never feeds traces or determinism.
	WallMS float64 `json:"wall_ms"`

	Admitted      []JobRef   `json:"admitted,omitempty"`
	AdmittedCount int        `json:"admitted_count"`
	Deferred      []Deferral `json:"deferred,omitempty"`
	DeferredCount int        `json:"deferred_count"`
	// Shed counts submissions rejected at the HTTP edge since the last
	// recorded epoch, keyed by obs deferral reason (queue-cap,
	// solver-backpressure, draining).
	Shed map[string]int `json:"shed,omitempty"`

	QueueDepth int `json:"queue_depth"`

	// Sched is the epoch LiPS planned inside the step, timed, in the form
	// its trace event and metrics take (sched.EpochRecord.TraceInfo): its
	// four phases sum to at most WallMS. It is nil on steps in which LiPS
	// planned no epoch: a pointer, so the ring, sized for every step,
	// carries one only where there is one.
	Sched *trace.EpochInfo `json:"sched,omitempty"`
}

// ring is a bounded ring: once full, each add evicts the oldest entry,
// and total keeps counting. It has no lock of its own: the daemon guards
// both of its rings, the decisions and the spans, with d.mu.
type ring[T any] struct {
	buf   []T
	next  int
	full  bool
	total int64
}

func newRing[T any](n int) *ring[T] { return &ring[T]{buf: make([]T, n)} }

func (r *ring[T]) add(v T) {
	r.buf[r.next] = v
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// snapshot returns the retained entries oldest first in a fresh slice,
// empty but not nil when there are none, so JSON reads [] and not null.
func (r *ring[T]) snapshot() []T {
	if !r.full {
		return append(make([]T, 0, r.next), r.buf[:r.next]...)
	}
	return append(append(make([]T, 0, len(r.buf)), r.buf[r.next:]...), r.buf[:r.next]...)
}
