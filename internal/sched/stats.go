package sched

import (
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

	// WarmOffered: the previous epoch's basis was offered to the solve.
	// WarmStarted: the solver's final solve started from a basis — under
	// ColGen usually the pricing round before it, with nothing offered, so
	// only the two together mean an epoch-to-epoch warm start.
	WarmOffered bool
	WarmStarted bool

	// Rows, Cols and NNZ size the LP the epoch solved: under ColGen, the
	// restricted master of the last pricing round.
	Rows, Cols, NNZ int
	// Status is why the solve failed: the solver's final status
	// ("iteration limit", …) or statusError; empty when it was optimal.
	Status string
	// Stats is what the solve cost, summed over the pricing rounds under
	// ColGen, whose round and generated-column counts follow.
	lp.Stats
	ColGenRounds  int
	ColGenColumns int
	// LPSolves counts the epoch's simplex solves, one per pricing round
	// under ColGen, and LPWarmStarts those that started from a basis.
	LPSolves, LPWarmStarts int

	// Where the epoch's wall-clock went, in order: building the instance
	// and the LP over the queued work, solving (the restricted master of
	// ColGen is built inside the solve), rounding, applying the plan.
	BuildTime time.Duration
	SolveTime time.Duration
	RoundTime time.Duration
	ApplyTime time.Duration
}

// observe folds the epoch's solve into a SolverStats accumulation.
func (r EpochRecord) observe(ss *metrics.SolverStats) {
	ss.Observe(r.Stats, r.WarmOffered, r.WarmOffered && r.WarmStarted, r.SolveTime, r.ColGenRounds, r.ColGenColumns)
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

// String is the epoch's solve as a SolverStats one-liner.
func (r EpochRecord) String() string {
	var ss metrics.SolverStats
	r.observe(&ss)
	return ss.String()
}

// traceInfo projects the record onto the epoch event's wire format — the
// only such copy. warm_accepted follows observe's rule: an offered basis
// that the solver used. The wall-clock fields are machine-dependent and
// stay zero unless timings is set.
func (r EpochRecord) traceInfo(scheduler string, timings bool) *trace.EpochInfo {
	info := &trace.EpochInfo{
		Scheduler: scheduler, Epoch: r.Epoch,
		Jobs: r.Jobs, Pending: r.Pending,
		Warm: r.WarmOffered, WarmAccepted: r.WarmOffered && r.WarmStarted,
		Iters: r.Iters, Phase1: r.Phase1, Status: r.Status,
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
