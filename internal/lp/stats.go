package lp

import "time"

// Stats is what one solve cost: the simplex's counters and the wall-clock
// split of where it went. It is declared here and nowhere else — Solution,
// ColGenStats, core.Plan, metrics.SolverStats and sched.EpochRecord embed
// it, so a solve's numbers travel from the simplex to every report as one
// value and sums of solves (pricing rounds, epochs, runs) go through Add.
type Stats struct {
	Iters  int // total simplex iterations (both phases)
	Phase1 int // iterations spent in phase 1 (0 on an accepted warm start)
	// DualIters counts dual-simplex repair pivots (Options.Dual): warm
	// starts whose basis was primal infeasible but dual feasible were
	// driven back to feasibility by this many pivots instead of a cold
	// two-phase restart. Included in Iters.
	DualIters int
	// Refactorizations counts from-scratch basis factorizations.
	Refactorizations int
	// FactorNNZ is the nonzero count of the final basis factorization,
	// L+U fill-in included. A snapshot, not a sum: see Add.
	FactorNNZ int
	// Deprecated: PresolveRows and PresolveCols are always 0; there is no
	// presolve pass. Their last reader is bench/replay.go.
	PresolveRows, PresolveCols int

	// PricingTime is the wall-clock spent in the pricing step (reduced-
	// cost refresh, entering-column scan and Devex weight maintenance)
	// across all iterations.
	PricingTime time.Duration
	// FactorTime is the wall-clock spent building and updating the basis
	// factorization; FtranTime and BtranTime cover the triangular solves
	// (entering columns and x_B; duals and Devex pivot rows).
	FactorTime time.Duration
	FtranTime  time.Duration
	BtranTime  time.Duration
}

// Add folds a later solve into s: every counter and timer sums, and
// FactorNNZ, which describes one factorization, becomes the later
// solve's.
func (s *Stats) Add(o Stats) {
	s.Iters += o.Iters
	s.Phase1 += o.Phase1
	s.DualIters += o.DualIters
	s.Refactorizations += o.Refactorizations
	s.FactorNNZ = o.FactorNNZ
	s.PricingTime += o.PricingTime
	s.FactorTime += o.FactorTime
	s.FtranTime += o.FtranTime
	s.BtranTime += o.BtranTime
}

// stats reads the solve's counters out of the working state.
func (s *simplexState) stats() Stats {
	return Stats{
		Iters: s.iter, Phase1: s.p1it, DualIters: s.dualIt,
		Refactorizations: s.nRefactor, FactorNNZ: s.factor.nnz(),
		PricingTime: s.pricingNS, FactorTime: s.factorNS,
		FtranTime: s.ftranNS, BtranTime: s.btranNS,
	}
}

// itersOnly keeps the iteration counts and drops the rest: what a solve
// abandoned in phase 1 (iteration limit, infeasible) has always reported.
// testdata/pivots.golden pins refactor=0 on those lines.
func (s Stats) itersOnly() Stats { return Stats{Iters: s.Iters, Phase1: s.Phase1} }
