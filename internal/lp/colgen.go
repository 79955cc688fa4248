package lp

import (
	"fmt"
	"time"
)

// Oracle prices a restricted master problem's optimal duals and extends
// the problem with violating columns (and any rows those columns need).
// SolveColGen calls Price after each solve, with a sol that the next
// round overwrites, so Price keeps none of it; the oracle inspects sol.Dual —
// rows it has not yet materialized implicitly carry dual zero, which is
// exact whenever an unmaterialized row holds trivially while no working-set
// column touches it — and appends columns with negative reduced cost via
// the ordinary Problem builder API. Price returns how many columns it
// added; returning 0 without growing the problem ends the loop.
//
// When sol.Status is not Optimal (the restricted problem turned out
// infeasible or unbounded), sol.Dual may be nil; the oracle may respond by
// adding recovery columns (e.g. revealing everything), or return 0 to
// surface that status to the caller.
type Oracle interface {
	Price(p *Problem, sol *Solution) int
}

// ColGenStats reports what a SolveColGen run did beyond the final
// solution: how many pricing rounds ran, how much the restricted problem
// grew, and the simplex effort summed over every round (the Solution's own
// Stats cover only the last re-solve).
type ColGenStats struct {
	Rounds     int // master solves, each priced unless the solver failed it; ≥ 1
	WarmRounds int // rounds whose solve accepted the previous round's basis
	Columns    int // columns the oracle added after the seed
	Rows       int // rows the oracle added after the seed
	// OracleTime is the wall-clock spent in the oracle's Price calls,
	// outside every solve.
	OracleTime time.Duration
	Stats      // summed over all rounds
}

// maxColGenRounds bounds the pricing loop against a buggy oracle that
// keeps adding columns forever; real LiPS epochs converge in a handful of
// rounds, so hitting this is an error, not a truncation.
const maxColGenRounds = 10000

// SolveColGen solves min c·x over the columns reachable by the oracle,
// by repeatedly solving the restricted master problem p and asking the
// oracle to price the duals and append violating columns. Each re-solve
// is warm-started from the previous round's basis via ExtendBasis —
// appended columns enter nonbasic at their default bound, so primal
// feasibility carries over and a round typically costs a few pivots.
// p is mutated in place (it accumulates the generated columns);
// opts.WarmStart, if set, seeds only the first round. An infeasible round
// hands the oracle its phase-1 duals, so it can price feasibility-
// restoring columns instead of capitulating to a full reveal.
//
// Every round solves into sol, reusing its X, Dual and Basis storage, so a
// caller that keeps one Solution across epochs allocates none of them once
// it has grown; on return sol holds the last round's solution. At
// termination no unrevealed column can improve the objective, so that
// solution is optimal for the full problem the oracle draws from, to the
// same tolerances as a direct solve.
func SolveColGen(p *Problem, oracle Oracle, opts Options, sol *Solution) (ColGenStats, error) {
	var st ColGenStats
	warm := opts.WarmStart
	for {
		ro := opts
		ro.WarmStart = warm
		err := p.solve(ro, sol)
		st.Rounds++
		if err != nil {
			return st, err
		}
		if sol.WarmStarted {
			st.WarmRounds++
		}
		st.Stats.Add(sol.Stats)
		v0, c0 := p.NumVars(), p.NumCons()
		priced := time.Now()
		added := oracle.Price(p, sol)
		st.OracleTime += time.Since(priced)
		if added == 0 && p.NumVars() == v0 && p.NumCons() == c0 {
			return st, nil
		}
		st.Columns += p.NumVars() - v0
		st.Rows += p.NumCons() - c0
		if sol.Status == Optimal {
			warm = p.ExtendBasis(sol.Basis)
		} else {
			warm = nil
		}
		if st.Rounds >= maxColGenRounds {
			return st, fmt.Errorf("lp: column generation did not converge after %d rounds (%d columns added)", st.Rounds, st.Columns)
		}
	}
}
