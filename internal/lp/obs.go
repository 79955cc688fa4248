package lp

import (
	"time"

	"lips/internal/obs"
)

// Solve runs the two-phase bounded-variable revised simplex method and
// returns the solution; see solve (simplex.go) for the algorithm. When
// Options.Metrics is set, each solve additionally publishes its
// statistics into the registry's lips_lp_* families; with it nil this
// wrapper is a single branch over the core solver.
func (p *Problem) Solve(opts Options) (*Solution, error) {
	if opts.Metrics == nil {
		return p.solve(opts)
	}
	om := obs.RegisterLP(opts.Metrics)
	start := time.Now()
	sol, err := p.solve(opts)
	om.Solves.Inc()
	om.SolveSeconds.Add(time.Since(start).Seconds())
	if sol == nil {
		return sol, err
	}
	om.Iterations.Add(float64(sol.Iters))
	om.Phase1.Add(float64(sol.Phase1))
	om.DualPivots.Add(float64(sol.DualIters))
	if sol.WarmStarted {
		om.WarmStarts.Inc()
	}
	om.Refactorizations.Add(float64(sol.Refactorizations))
	om.PricingSeconds.Add(sol.PricingTime.Seconds())
	om.FactorSeconds.Add((sol.FactorTime + sol.FtranTime + sol.BtranTime).Seconds())
	return sol, err
}
