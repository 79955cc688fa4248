package lp

import (
	"math"
	"sort"
)

// RevealOracle prices a fully materialized Problem against a restricted
// copy, revealing columns lazily: the generic oracle for problems whose
// columns already exist in memory. It is the differential-test vehicle
// (colgen must reproduce the direct solve on any corpus problem).
// Production LiPS instead uses core's scheduling-aware oracle, which
// never materializes the full cross product.
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
		// Every infeasible solve carries its certificate. Phase-1
		// pricing: structural columns cost 0 in the artificial
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
