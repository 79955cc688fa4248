// Package metrics holds SolverStats, a run's LP statistics summed over
// its epochs. The simulator's tallies (locality, per-node CPU,
// utilization, fairness, fault counts) live in package sim, which alone
// writes them. SolverStats belongs beside sched.EpochRecord, which fills
// it; it stays a package of its own only because bench/simdrive.go
// names metrics.SolverStats, and moves into sched when bench/ stops
// naming it.
package metrics

import (
	"fmt"
	"time"

	"lips/internal/lp"
)

// SolverStats accumulates per-solve LP statistics across the epochs of a
// run: how many simplex solves ran, the iteration counts, and where the
// solve wall-clock went.
type SolverStats struct {
	Solves int // simplex solves observed, one per pricing round
	// WarmAttempted and WarmAccepted would count epoch solves offered a
	// starting basis and those that used it. No basis crosses epochs, so
	// both stay 0; they remain only because bench/live.go and
	// bench/simdrive.go read them (ROADMAP item 2).
	WarmAttempted int
	WarmAccepted  int

	// Stats sums the solves' own counters and timers (lp.Stats.Add);
	// FactorNNZ is the last solve's.
	lp.Stats

	SolveTime time.Duration // wall-clock around the solves, model hand-off included

	// Column-generation economics: pricing rounds of restricted-master
	// solves and columns materialized beyond the seed.
	ColGenRounds  int
	ColGenColumns int
}

// Observe records one epoch's solve: st is what the solver reported
// (summed over its solves simplex solves), solve the wall-clock around it.
func (ss *SolverStats) Observe(st lp.Stats, solves int, solve time.Duration, colgenRounds, colgenColumns int) {
	ss.Solves += solves
	ss.Stats.Add(st)
	ss.SolveTime += solve
	ss.ColGenRounds += colgenRounds
	ss.ColGenColumns += colgenColumns
}

// Merge folds another accumulation into ss, so a benchmark suite can
// aggregate solver statistics across its runs. An accumulation that
// observed nothing changes nothing — not even the FactorNNZ snapshot.
func (ss *SolverStats) Merge(o SolverStats) {
	if o.Solves == 0 {
		return
	}
	ss.Solves += o.Solves
	ss.Stats.Add(o.Stats)
	ss.SolveTime += o.SolveTime
	ss.ColGenRounds += o.ColGenRounds
	ss.ColGenColumns += o.ColGenColumns
}

// PricingShare is the fraction of solve wall-clock spent pricing.
func (ss *SolverStats) PricingShare() float64 {
	if ss.SolveTime == 0 {
		return 0
	}
	return float64(ss.PricingTime) / float64(ss.SolveTime)
}

// AvgIters is the mean simplex iteration count per simplex solve.
func (ss *SolverStats) AvgIters() float64 {
	if ss.Solves == 0 {
		return 0
	}
	return float64(ss.Iters) / float64(ss.Solves)
}

// String summarises the stats on one line: iteration counts and where the
// solve wall-clock went — to the microsecond, since the line also
// describes single epochs.
func (ss *SolverStats) String() string {
	s := fmt.Sprintf(
		"%d solves, %d iters (%.1f avg/solve, %d phase1), solve %v (pricing %.0f%%, factor %v, ftran %v, btran %v), %d refactor (%d nnz)",
		ss.Solves, ss.Iters, ss.AvgIters(), ss.Phase1,
		ss.SolveTime.Round(time.Microsecond), 100*ss.PricingShare(),
		ss.FactorTime.Round(time.Microsecond), ss.FtranTime.Round(time.Microsecond),
		ss.BtranTime.Round(time.Microsecond), ss.Refactorizations, ss.FactorNNZ,
	)
	if ss.ColGenRounds > 0 {
		s += fmt.Sprintf(", colgen %d rounds/%d columns", ss.ColGenRounds, ss.ColGenColumns)
	}
	return s
}
