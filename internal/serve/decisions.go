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

// decisionRing is a bounded ring of epoch decisions. It has no lock of
// its own: the daemon guards it with d.mu.
type decisionRing struct {
	buf   []EpochDecision
	next  int
	full  bool
	total int64
}

func newDecisionRing(n int) *decisionRing { return &decisionRing{buf: make([]EpochDecision, n)} }

func (r *decisionRing) add(d EpochDecision) {
	r.buf[r.next] = d
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// snapshot returns the ring oldest-first.
func (r *decisionRing) snapshot() []EpochDecision {
	if !r.full {
		out := make([]EpochDecision, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]EpochDecision, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
