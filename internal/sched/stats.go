package sched

import (
	"fmt"
	"time"

	"lips/internal/lp"
	"lips/internal/metrics"
	"lips/internal/obs"
	"lips/internal/trace"
)

// EpochRecord is the one account of one scheduling epoch. planEpoch fills
// exactly one per epoch that called the solver, a failed solve included
// (it defers all its pending work and its LP's size is unknown), and
// hands it to LiPS.record, and every report of the epoch — the run
// totals, LastEpochStats, the lips_sched_* and lips_lp_* metrics, the
// trace event, the daemon's /debug/epochs entry — is rendered from it.
type EpochRecord struct {
	Epoch   int     // 1-based epoch counter within this run
	SimTime float64 // simulated seconds at the tick

	Jobs        int // queued jobs the epoch's LP covered
	Pending     int // pending tasks across those jobs at epoch start
	Launched    int // tasks enqueued by the epoch's plan
	Deferred    int // Pending - Launched: work the LP left for later epochs
	BlocksMoved int // block relocations the plan issued

	// Rows, Cols and NNZ size the LP the epoch solved: the restricted
	// master of the last pricing round.
	Rows, Cols, NNZ int
	// Status is why the solve failed: the solver's final status
	// ("iteration limit", …) or statusError; empty when it was optimal.
	Status string
	// Stalled marks a solve that took more than stallFactor·(Rows+Cols)
	// pivots (every round's against the last master's size), failed or
	// not: a simplex that terminates needs a few passes
	// over its LP, and one that cycles runs on to the iteration limit.
	Stalled bool
	// Stats is what the solve cost, summed over the pricing rounds, whose
	// count and generated-column count follow.
	lp.Stats
	ColGenRounds  int
	ColGenColumns int
	// LPSolves counts the epoch's simplex solves, one per pricing round,
	// and LPWarmStarts those that started from a basis: the rounds after
	// the first that accepted the previous round's.
	LPSolves, LPWarmStarts int

	// OracleTime is the part of SolveTime spent pricing the closed
	// machines between the master's rounds.
	OracleTime time.Duration

	// Where the epoch's wall-clock went, in order: building (gathering
	// the queued work, its instance and the restricted master), solving
	// (the column-generation loop alone), rounding, applying the plan.
	BuildTime time.Duration
	SolveTime time.Duration
	RoundTime time.Duration
	ApplyTime time.Duration
}

// observe folds the epoch's solve into a SolverStats accumulation.
func (r EpochRecord) observe(ss *metrics.SolverStats) {
	ss.Observe(r.Stats, r.LPSolves, r.SolveTime, r.ColGenRounds, r.ColGenColumns)
}

// stallFactor is how many pivots per row and column make a solve stalled.
const stallFactor = 20

// stalled is the rule Stalled records.
func (r EpochRecord) stalled() bool {
	return r.Rows+r.Cols > 0 && r.Iters > stallFactor*(r.Rows+r.Cols)
}

// statusError is the Status of a solve abandoned without a final status:
// a singular basis, or column generation that never converged.
const statusError = "error"

// observeLP adds the epoch's solves into the lips_lp_* families. A solve
// abandoned (statusError) counts, but not as a finished pricing loop.
func (r EpochRecord) observeLP(m *obs.LPMetrics) {
	m.Solves.Add(float64(r.LPSolves))
	m.WarmStarts.Add(float64(r.LPWarmStarts))
	m.Iterations.Add(float64(r.Iters))
	m.Phase1.Add(float64(r.Phase1))
	m.Refactorizations.Add(float64(r.Refactorizations))
	m.SolveSeconds.Add(r.SolveTime.Seconds())
	m.PricingSeconds.Add(r.PricingTime.Seconds())
	m.FactorSeconds.Add(r.FactorTime.Seconds())
	m.FtranSeconds.Add(r.FtranTime.Seconds())
	m.BtranSeconds.Add(r.BtranTime.Seconds())
	if r.Status != statusError {
		m.ColGenRounds.Add(float64(r.ColGenRounds))
		m.ColGenColumns.Add(float64(r.ColGenColumns))
	}
}

// String is the epoch's solve as a SolverStats one-liner over its own
// simplex solves, one per pricing round, ending with how many of them
// started warm.
func (r EpochRecord) String() string {
	var ss metrics.SolverStats
	r.observe(&ss)
	return fmt.Sprintf("%s, %d warm", ss.String(), r.LPWarmStarts)
}

// traceInfo projects the record onto the epoch event's wire format — the
// only such copy. Its warm keys, an epoch-to-epoch basis offered and
// used, stay unset: no basis crosses epochs. The wall-clock fields are
// machine-dependent and stay zero unless timings is set.
func (r EpochRecord) traceInfo(scheduler string, timings bool) *trace.EpochInfo {
	info := &trace.EpochInfo{
		Scheduler: scheduler, Epoch: r.Epoch,
		Jobs: r.Jobs, Pending: r.Pending,
		Iters: r.Iters, Phase1: r.Phase1, Status: r.Status, Stalled: r.Stalled,
		Launched: r.Launched, Deferred: r.Deferred,
		BlocksMoved: r.BlocksMoved,
	}
	if timings {
		info.BuildMS = ms(r.BuildTime)
		info.SolveMS = ms(r.SolveTime)
		info.RoundMS = ms(r.RoundTime)
		info.ApplyMS = ms(r.ApplyTime)
		info.PricingMS = ms(r.PricingTime)
		info.FactorMS = ms(r.FactorTime)
		info.FtranMS = ms(r.FtranTime)
		info.BtranMS = ms(r.BtranTime)
	}
	return info
}

// ms is d in milliseconds at the trace's microsecond resolution.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// LastEpochStats returns the most recent epoch's record. ok is false
// before the first epoch of a run plans.
func (l *LiPS) LastEpochStats() (EpochRecord, bool) {
	return l.lastEpoch, l.lastEpoch.Epoch > 0
}
