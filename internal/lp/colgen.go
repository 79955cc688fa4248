package lp

import (
	"fmt"
	"math"
	"sort"

	"lips/internal/obs"
)

// Oracle prices a restricted master problem's optimal duals and extends
// the problem with violating columns (and any rows those columns need).
// SolveColGen calls Price after each solve; the oracle inspects sol.Dual —
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
	Rounds     int // pricing rounds (solve + Price pairs), ≥ 1
	WarmRounds int // rounds whose solve accepted the previous round's basis
	Columns    int // columns the oracle added after the seed
	Rows       int // rows the oracle added after the seed
	Stats          // summed over all rounds
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
// opts.WarmStart, if set, seeds only the first round. Presolve is
// disabled internally: restricted masters are small by construction, and
// an infeasible round must surface its phase-1 duals (which presolve's
// postsolve discards) so the oracle can price feasibility-restoring
// columns instead of capitulating to a full reveal.
//
// At termination no unrevealed column can improve the objective, so the
// returned solution is optimal for the full problem the oracle draws from,
// to the same tolerances as a direct solve.
func SolveColGen(p *Problem, oracle Oracle, opts Options) (*Solution, ColGenStats, error) {
	var st ColGenStats
	warm := opts.WarmStart
	for {
		ro := opts
		ro.WarmStart = warm
		ro.Presolve = PresolveOff
		sol, err := p.Solve(ro)
		if err != nil {
			return nil, st, err
		}
		st.Rounds++
		if sol.WarmStarted {
			st.WarmRounds++
		}
		st.Stats.Add(sol.Stats)
		v0, c0 := p.NumVars(), p.NumCons()
		added := oracle.Price(p, sol)
		if added == 0 && p.NumVars() == v0 && p.NumCons() == c0 {
			if opts.Metrics != nil {
				om := obs.RegisterLP(opts.Metrics)
				om.ColGenRounds.Add(float64(st.Rounds))
				om.ColGenColumns.Add(float64(st.Columns))
			}
			return sol, st, nil
		}
		st.Columns += p.NumVars() - v0
		st.Rows += p.NumCons() - c0
		if sol.Status == Optimal {
			warm = p.ExtendBasis(sol.Basis)
		} else {
			warm = nil
		}
		if st.Rounds >= maxColGenRounds {
			return sol, st, fmt.Errorf("lp: column generation did not converge after %d rounds (%d columns added)", st.Rounds, st.Columns)
		}
	}
}

// RevealOracle prices a fully materialized Problem against a restricted
// copy, revealing columns lazily: the generic oracle for problems whose
// columns already exist in memory. It is the differential-test vehicle
// (colgen must reproduce the direct solve on any corpus problem) and backs
// lips-lp -colgen. Production LiPS instead uses core's scheduling-aware
// oracle, which never materializes the full cross product.
type RevealOracle struct {
	full     *Problem
	tol      float64
	r2f      []int  // restricted var index -> full var index
	revealed []bool // per full var
}

// NewRestricted builds a restricted copy of full containing every row but
// only the columns that cannot rest at zero (nonzero lower bound, negative
// upper bound), plus the oracle that reveals the rest on demand. Solve the
// returned problem with SolveColGen(p, o, opts).
func NewRestricted(full *Problem) (*Problem, *RevealOracle) {
	p := New(full.Name() + "-restricted")
	for i := 0; i < full.NumCons(); i++ {
		p.AddCon(full.ConName(Con(i)), full.ConSense(Con(i)), full.ConRHS(Con(i)))
	}
	o := &RevealOracle{full: full, tol: 1e-9, revealed: make([]bool, full.NumVars())}
	for j := 0; j < full.NumVars(); j++ {
		lo, hi := full.Bounds(Var(j))
		if lo > 0 || hi < 0 {
			o.reveal(p, j)
		}
	}
	return p, o
}

// reveal copies full column j into p and records the mapping.
func (o *RevealOracle) reveal(p *Problem, j int) {
	fv := Var(j)
	lo, hi := o.full.Bounds(fv)
	v := p.AddVar(o.full.VarName(fv), lo, hi, o.full.Cost(fv))
	for _, e := range o.full.vars[j].col {
		p.SetCoef(Con(e.row), v, e.coef)
	}
	o.r2f = append(o.r2f, j)
	o.revealed[j] = true
}

// Price reveals every unrevealed column whose reduced cost under the
// restricted duals could improve the objective from its rest value of
// zero. An infeasible restricted solve prices against the phase-1 duals
// instead (a Farkas certificate of the restriction): columns that would
// shrink the infeasibility are revealed, and when none exists the full
// problem really is infeasible. An unbounded restriction adds nothing —
// its ray is a ray of the full problem too.
func (o *RevealOracle) Price(p *Problem, sol *Solution) int {
	switch sol.Status {
	case Optimal:
		return o.priceDuals(p, sol.Dual, func(fv Var) float64 { return o.full.Cost(fv) }, o.tol, 0)
	case Infeasible:
		if sol.Dual == nil {
			// No certificate (e.g. a presolve-detected infeasibility):
			// reveal everything and let one full round settle it.
			n := 0
			for j := range o.revealed {
				if !o.revealed[j] {
					o.reveal(p, j)
					n++
				}
			}
			return n
		}
		// Phase-1 pricing: structural columns cost 0 in the artificial
		// objective, so d_j = −y·A_j. The tolerance is looser than the
		// optimality tolerance — the phase-1 optimum left > 1e-6 of
		// residual infeasibility, so genuinely useful columns price well
		// below noise level. Reveals are capped at the number of active
		// certificate rows: every column touching an uncovered demand row
		// prices identically negative here, and an uncapped reveal would
		// drag in the whole cross product that the restriction exists to
		// avoid. The cap keeps progress guaranteed (at least one column
		// per round when any helps) while the follow-up optimal rounds
		// discriminate by true cost.
		active := 0
		for _, yi := range sol.Dual {
			if math.Abs(yi) > o.tol {
				active++
			}
		}
		if active < 1 {
			active = 1
		}
		return o.priceDuals(p, sol.Dual, func(Var) float64 { return 0 }, 100*o.tol, active)
	default:
		return 0
	}
}

// colCand is a pricing candidate: full column j with reduced cost d.
type colCand struct {
	j int
	d float64
}

// priceDuals reveals unrevealed columns whose reduced cost cost(j) − y·A_j
// says their rest value of zero is suboptimal: they could profitably
// increase (d < 0, room above zero) or decrease (d > 0, room below zero).
// limit > 0 reveals only the limit most violating candidates (ties to the
// lower index, so rounds are deterministic); 0 reveals every candidate.
func (o *RevealOracle) priceDuals(p *Problem, y []float64, cost func(Var) float64, tol float64, limit int) int {
	var cands []colCand
	for j := range o.revealed {
		if o.revealed[j] {
			continue
		}
		fv := Var(j)
		c := cost(fv)
		d := c
		for _, e := range o.full.vars[j].col {
			d -= y[e.row] * e.coef
		}
		lo, hi := o.full.Bounds(fv)
		dtol := tol * (1 + math.Abs(c))
		if (d < -dtol && hi > 0) || (d > dtol && lo < 0) {
			cands = append(cands, colCand{j: j, d: -math.Abs(d)})
		}
	}
	if limit > 0 && len(cands) > limit {
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d != cands[b].d {
				return cands[a].d < cands[b].d
			}
			return cands[a].j < cands[b].j
		})
		cands = cands[:limit]
		sort.Slice(cands, func(a, b int) bool { return cands[a].j < cands[b].j })
	}
	for _, c := range cands {
		o.reveal(p, c.j)
	}
	return len(cands)
}

// Expand maps a solution of the restricted problem back onto the full
// problem's variable indexing; unrevealed columns are zero.
func (o *RevealOracle) Expand(sol *Solution) []float64 {
	x := make([]float64, o.full.NumVars())
	for rj, fj := range o.r2f {
		x[fj] = sol.X[rj]
	}
	return x
}
