package sched

import (
	"time"

	"lips/internal/lp"
	"lips/internal/trace"
)

// EpochRecord is the one account of one scheduling epoch. planEpoch fills
// exactly one per epoch that called the solver, a failed solve included
// (it defers all its pending work and its LP's size is unknown), and
// hands it to LiPS.record. The run totals and LastEpochStats read it;
// every other report of the epoch — the lips_sched_* and lips_lp_*
// metrics, the trace event, the daemon's /debug/epochs entry — reads its
// one projection, TraceInfo.
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
	// ("iteration limit", …) or trace.StatusError; empty when it was
	// optimal.
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

// stallFactor is how many pivots per row and column make a solve stalled.
const stallFactor = 20

// stalled is the rule Stalled records.
func (r EpochRecord) stalled() bool {
	return r.Rows+r.Cols > 0 && r.Iters > stallFactor*(r.Rows+r.Cols)
}

// TraceInfo projects the record onto its wire form — the only such copy,
// which the trace event, the live metrics and the daemon's /debug/epochs
// entry all carry. The wall-clock fields are machine-dependent and stay
// zero unless timings is set.
func (r EpochRecord) TraceInfo(scheduler string, timings bool) *trace.EpochInfo {
	info := &trace.EpochInfo{
		Scheduler: scheduler, Epoch: r.Epoch,
		Jobs: r.Jobs, Pending: r.Pending,
		Iters: r.Iters, Phase1: r.Phase1, Status: r.Status, Stalled: r.Stalled,
		Launched: r.Launched, Deferred: r.Deferred, BlocksMoved: r.BlocksMoved,
		Rows: r.Rows, Cols: r.Cols, NNZ: r.NNZ,
		Solves: r.LPSolves, WarmStarts: r.LPWarmStarts, Refactorizations: r.Refactorizations,
		ColGenRounds: r.ColGenRounds, ColGenColumns: r.ColGenColumns,
	}
	if timings {
		info.BuildMS = trace.MS(r.BuildTime)
		info.SolveMS = trace.MS(r.SolveTime)
		info.RoundMS = trace.MS(r.RoundTime)
		info.ApplyMS = trace.MS(r.ApplyTime)
		info.PricingMS = trace.MS(r.PricingTime)
		info.FactorMS = trace.MS(r.FactorTime)
		info.FtranMS = trace.MS(r.FtranTime)
		info.BtranMS = trace.MS(r.BtranTime)
		info.OracleMS = trace.MS(r.OracleTime)
	}
	return info
}

// LastEpochStats returns the most recent epoch's record. ok is false
// before the first epoch of a run plans.
func (l *LiPS) LastEpochStats() (EpochRecord, bool) {
	return l.lastEpoch, l.lastEpoch.Epoch > 0
}
