package lp

import (
	"fmt"
	"math"
)

// The tests drift a built problem in place — right-hand sides and bounds
// change, the column structure does not — to exercise warm starts and
// the dual repair on a basis the change left primal infeasible.

// SetRHS replaces the right-hand side of c.
func (p *Problem) SetRHS(c Con, rhs float64) {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: non-finite rhs %g for con %d", rhs, c))
	}
	p.cons[c].rhs = rhs
}

// SetBounds replaces the bounds of v, with the same validation as AddVar.
func (p *Problem) SetBounds(v Var, lower, upper float64) {
	if lower > upper {
		panic(fmt.Sprintf("lp: variable %q set to inverted bounds [%g, %g]", p.VarName(v), lower, upper))
	}
	if math.IsInf(lower, 1) || math.IsInf(upper, -1) {
		panic(fmt.Sprintf("lp: variable %q set to infinite bound of the wrong sign", p.VarName(v)))
	}
	if math.IsNaN(lower) || math.IsNaN(upper) {
		panic(fmt.Sprintf("lp: variable %q set to NaN bound", p.VarName(v)))
	}
	p.vars[v].lower, p.vars[v].upper = lower, upper
}
