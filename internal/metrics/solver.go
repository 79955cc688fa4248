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
// run, quantifying what warm-starting buys: how many warm starts were
// attempted and accepted, the iteration counts on each path, and where
// the solve wall-clock went.
type SolverStats struct {
	Solves        int // LP solves observed
	WarmAttempted int // solves that offered a starting basis
	WarmAccepted  int // solves where the basis validated and was used

	// Stats sums the solves' own counters and timers (lp.Stats.Add);
	// FactorNNZ is the last solve's.
	lp.Stats
	WarmIters int // iterations on warm-started solves
	ColdIters int // iterations on cold solves

	SolveTime time.Duration // wall-clock around the solves, model hand-off included

	// Column-generation economics: pricing rounds of restricted-master
	// solves and columns materialized beyond the seed. Zero when the
	// direct solver ran.
	ColGenRounds  int
	ColGenColumns int
}

// Observe records one epoch's solve: st is what the solver reported
// (summed over pricing rounds under column generation), solve the
// wall-clock around it. warmAttempted says a starting basis was offered;
// warmAccepted says the solver used it.
func (ss *SolverStats) Observe(st lp.Stats, warmAttempted, warmAccepted bool, solve time.Duration, colgenRounds, colgenColumns int) {
	ss.Solves++
	ss.Stats.Add(st)
	ss.SolveTime += solve
	if warmAttempted {
		ss.WarmAttempted++
	}
	if warmAccepted {
		ss.WarmAccepted++
		ss.WarmIters += st.Iters
	} else {
		ss.ColdIters += st.Iters
	}
	ss.ColGenRounds += colgenRounds
	ss.ColGenColumns += colgenColumns
}

// IterationsSaved estimates the simplex iterations avoided by warm
// starts: accepted warm solves cost WarmIters instead of the average
// cold solve's iteration count.
func (ss *SolverStats) IterationsSaved() int {
	cold := ss.Solves - ss.WarmAccepted
	if cold == 0 || ss.WarmAccepted == 0 {
		return 0
	}
	perCold := ss.ColdIters / cold
	saved := ss.WarmAccepted*perCold - ss.WarmIters
	if saved < 0 {
		return 0
	}
	return saved
}

// AcceptRate is the fraction of attempted warm starts that were usable.
func (ss *SolverStats) AcceptRate() float64 {
	if ss.WarmAttempted == 0 {
		return 0
	}
	return float64(ss.WarmAccepted) / float64(ss.WarmAttempted)
}

// Merge folds another accumulation into ss, so a benchmark suite can
// aggregate solver statistics across its runs. An accumulation that
// observed nothing changes nothing — not even the FactorNNZ snapshot.
func (ss *SolverStats) Merge(o SolverStats) {
	if o.Solves == 0 {
		return
	}
	ss.Solves += o.Solves
	ss.WarmAttempted += o.WarmAttempted
	ss.WarmAccepted += o.WarmAccepted
	ss.Stats.Add(o.Stats)
	ss.WarmIters += o.WarmIters
	ss.ColdIters += o.ColdIters
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

// AvgIters is the mean simplex iteration count per solve.
func (ss *SolverStats) AvgIters() float64 {
	if ss.Solves == 0 {
		return 0
	}
	return float64(ss.Iters) / float64(ss.Solves)
}

// String summarises the stats on one line: the warm-start accept rate,
// iteration economics, and where the solve wall-clock went — to the
// microsecond, since the line also describes single epochs.
func (ss *SolverStats) String() string {
	s := fmt.Sprintf(
		"%d solves (%d/%d warm, %.0f%% accepted), %d iters (%.1f avg/solve, %d phase1, ~%d saved), solve %v (pricing %.0f%%, factor %v, ftran %v, btran %v), %d refactor (%d nnz)",
		ss.Solves, ss.WarmAccepted, ss.WarmAttempted, 100*ss.AcceptRate(),
		ss.Iters, ss.AvgIters(), ss.Phase1, ss.IterationsSaved(),
		ss.SolveTime.Round(time.Microsecond), 100*ss.PricingShare(),
		ss.FactorTime.Round(time.Microsecond), ss.FtranTime.Round(time.Microsecond),
		ss.BtranTime.Round(time.Microsecond), ss.Refactorizations, ss.FactorNNZ,
	)
	if ss.ColGenRounds > 0 {
		s += fmt.Sprintf(", colgen %d rounds/%d columns", ss.ColGenRounds, ss.ColGenColumns)
	}
	return s
}
