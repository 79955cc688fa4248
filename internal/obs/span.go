package obs

// Job-scoped spans: one Span records the phase milestones of a single
// submission — submit → queued → admitted → epoch-planned → first-launch
// → done/cancelled/shed — in simulated seconds, plus the admitting serve
// epoch and the job's exact ledger cost in microcents. Spans are
// pull-based: the simulator and the serve daemon stamp plain fields on
// their existing records and assemble a Span on demand, so the disabled
// path costs nothing and same-seed runs stay byte-identical.
//
// A milestone that has not happened yet is -1, never 0 — simulated time
// starts at zero, so zero is a legal timestamp.

// Span outcomes.
const (
	OutcomeDone      = "done"      // every task completed
	OutcomeCancelled = "cancelled" // withdrawn by the tenant
	OutcomeShed      = "shed"      // refused at admission (429/503)
)

// Deferral and shed reasons — the typed taxonomy every 429, 503 and
// epoch deferral carries (DESIGN.md §8).
const (
	// ReasonQueueCap: the admission queue was full (429).
	ReasonQueueCap = "queue-cap"
	// ReasonSolverBackpressure: the queue was half full while an epoch
	// was solving (429 before breakdown).
	ReasonSolverBackpressure = "solver-backpressure"
	// ReasonDraining: the daemon was shutting down (503).
	ReasonDraining = "draining"
	// ReasonFairShare: the job lost this epoch's tenant-fair admission
	// ranking to the AdmitPerEpoch batch bound and stayed queued.
	ReasonFairShare = "fair-share-rank"
	// ReasonNoCapacity: the job is admitted but the epoch LP parked part
	// of its work on the fake overflow node (no capacity this epoch).
	ReasonNoCapacity = "no-capacity"
	// ReasonBudgetExhausted: the tenant's configured dollar budget is
	// spent, so its queued jobs sit out the admission ranking until the
	// operator raises the budget.
	ReasonBudgetExhausted = "budget-exhausted"
)

// DeferralReasons is the closed vocabulary of Span.Reason and epoch
// deferral reasons, for pre-registration and validation.
var DeferralReasons = []string{
	ReasonQueueCap, ReasonSolverBackpressure, ReasonDraining,
	ReasonFairShare, ReasonNoCapacity, ReasonBudgetExhausted,
}

// Span is one job's phase timeline. All timestamps are simulated
// seconds; unset milestones are -1 (use NewSpan).
type Span struct {
	Job    int    `json:"job"`
	Name   string `json:"name,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Outcome is empty while the job is still in flight.
	Outcome string `json:"outcome,omitempty"`
	// Reason explains a shed outcome (DeferralReasons).
	Reason string `json:"reason,omitempty"`
	// Epoch is the serve epoch that admitted the job (0 outside serve
	// mode).
	Epoch int64 `json:"epoch,omitempty"`

	SubmittedSim   float64 `json:"submitted_sim"`    // accepted into the system
	AdmittedSim    float64 `json:"admitted_sim"`     // entered the simulator
	PlannedSim     float64 `json:"planned_sim"`      // an epoch plan first pinned a task
	FirstLaunchSim float64 `json:"first_launch_sim"` // first primary attempt started
	DoneSim        float64 `json:"done_sim"`         // terminal (done or cancelled)

	// CostUC is the job's exact ledger charge in microcents so far.
	CostUC int64 `json:"cost_uc"`
}

// NewSpan returns a span for one job with every milestone unset.
func NewSpan(job int) Span {
	return Span{
		Job: job, SubmittedSim: -1, AdmittedSim: -1, PlannedSim: -1,
		FirstLaunchSim: -1, DoneSim: -1,
	}
}

// Phase is one segment of a span's timeline.
type Phase struct {
	Name     string  `json:"name"`
	StartSim float64 `json:"start_sim"`
	EndSim   float64 `json:"end_sim"`
	DurSim   float64 `json:"dur_sim"`
}

// Phases decomposes the span into adjacent segments between its set
// milestones: queue-wait (submitted → admitted), plan-wait (admitted →
// planned), launch-wait (planned → first launch) and execution (first
// launch → done). Unset milestones are skipped and the next segment
// absorbs their time, so the durations always telescope to the span's
// end-to-end latency; the final segment of a cancelled or shed job is
// named after the outcome instead of "execution".
func (s *Span) Phases() []Phase {
	if s.SubmittedSim < 0 {
		return nil
	}
	marks := []struct {
		name string
		t    float64
	}{
		{"queue-wait", s.AdmittedSim},
		{"plan-wait", s.PlannedSim},
		{"launch-wait", s.FirstLaunchSim},
		{"execution", s.DoneSim},
	}
	var out []Phase
	cur := s.SubmittedSim
	for _, m := range marks {
		if m.t < 0 || m.t < cur {
			continue
		}
		name := m.name
		if m.t == s.DoneSim && name == "execution" &&
			(s.Outcome == OutcomeCancelled || s.Outcome == OutcomeShed) {
			name = s.Outcome
		}
		out = append(out, Phase{Name: name, StartSim: cur, EndSim: m.t, DurSim: m.t - cur})
		cur = m.t
	}
	return out
}

// E2ESim returns the span's end-to-end latency in simulated seconds, or
// -1 while the job has not reached a terminal state.
func (s *Span) E2ESim() float64 {
	if s.DoneSim < 0 || s.SubmittedSim < 0 {
		return -1
	}
	return s.DoneSim - s.SubmittedSim
}
