// Package lp implements linear programming for the LiPS scheduler.
//
// The package provides a problem builder (Problem) and one solver, a
// two-phase bounded-variable revised simplex (Solve). Problems are stored
// column-wise and sparse, because LiPS scheduling LPs have at most four
// nonzeros per column.
//
// All problems are minimization problems. Variables carry explicit bounds
// [Lower, Upper]; upper bounds are handled by the bounded-variable pivoting
// rule rather than by extra constraint rows, which keeps the basis small.
package lp

import (
	"fmt"
	"math"
)

// Inf is the canonical unbounded value for variable bounds.
var Inf = math.Inf(1)

// Sense is the direction of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // ≤ rhs
	GE              // ≥ rhs
	EQ              // = rhs
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Var identifies a variable in a Problem.
type Var int

// Con identifies a constraint row in a Problem.
type Con int

// nz is a single nonzero coefficient in a column.
type nz struct {
	row  int
	coef float64
}

type variable struct {
	name  string
	lower float64
	upper float64
	cost  float64
	col   []nz
}

type constraint struct {
	name  string
	sense Sense
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create problems with New.
type Problem struct {
	name string
	vars []variable
	cons []constraint
}

// New returns an empty minimization problem with the given name.
func New(name string) *Problem {
	return &Problem{name: name}
}

// Name returns the problem name.
func (p *Problem) Name() string { return p.name }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.vars) }

// NumCons returns the number of constraint rows added so far.
func (p *Problem) NumCons() int { return len(p.cons) }

// AddVar adds a variable with bounds [lower, upper] and objective
// coefficient cost, returning its handle. AddVar panics if the bounds are
// inverted or lower is +Inf, since that is a program construction bug.
func (p *Problem) AddVar(name string, lower, upper, cost float64) Var {
	if lower > upper {
		panic(fmt.Sprintf("lp: variable %q has inverted bounds [%g, %g]", name, lower, upper))
	}
	if math.IsInf(lower, 1) || math.IsInf(upper, -1) {
		panic(fmt.Sprintf("lp: variable %q has infinite bound of the wrong sign", name))
	}
	if math.IsNaN(lower) || math.IsNaN(upper) || math.IsNaN(cost) {
		panic(fmt.Sprintf("lp: variable %q has NaN bound or cost", name))
	}
	p.vars = append(p.vars, variable{name: name, lower: lower, upper: upper, cost: cost})
	return Var(len(p.vars) - 1)
}

// AddCon adds an empty constraint row with the given sense and right-hand
// side, returning its handle. Coefficients are attached with SetCoef.
func (p *Problem) AddCon(name string, sense Sense, rhs float64) Con {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: constraint %q has non-finite rhs %g", name, rhs))
	}
	p.cons = append(p.cons, constraint{name: name, sense: sense, rhs: rhs})
	return Con(len(p.cons) - 1)
}

// SetCoef sets the coefficient of variable v in constraint c. Setting the
// same (c, v) pair twice accumulates, which is convenient for objective
// terms assembled from several model components. Zero coefficients are
// ignored.
func (p *Problem) SetCoef(c Con, v Var, coef float64) {
	if math.IsNaN(coef) || math.IsInf(coef, 0) {
		panic(fmt.Sprintf("lp: non-finite coefficient %g for var %d in con %d", coef, v, c))
	}
	if coef == 0 {
		return
	}
	col := &p.vars[v].col
	for i := range *col {
		if (*col)[i].row == int(c) {
			(*col)[i].coef += coef
			return
		}
	}
	*col = append(*col, nz{row: int(c), coef: coef})
}

// Cost returns the current objective coefficient of v.
func (p *Problem) Cost(v Var) float64 { return p.vars[v].cost }

// SetCost replaces the objective coefficient of v. Together with SetRHS
// and SetBounds it supports in-place epoch-to-epoch drift (prices,
// capacities, deadlines) without rebuilding the problem, which keeps
// warm-start bases valid: the column structure is untouched.
func (p *Problem) SetCost(v Var, cost float64) {
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		panic(fmt.Sprintf("lp: non-finite cost %g for var %d", cost, v))
	}
	p.vars[v].cost = cost
}

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
		panic(fmt.Sprintf("lp: variable %q set to inverted bounds [%g, %g]", p.vars[v].name, lower, upper))
	}
	if math.IsInf(lower, 1) || math.IsInf(upper, -1) {
		panic(fmt.Sprintf("lp: variable %q set to infinite bound of the wrong sign", p.vars[v].name))
	}
	if math.IsNaN(lower) || math.IsNaN(upper) {
		panic(fmt.Sprintf("lp: variable %q set to NaN bound", p.vars[v].name))
	}
	p.vars[v].lower, p.vars[v].upper = lower, upper
}

// Bounds returns the bounds of v.
func (p *Problem) Bounds(v Var) (lower, upper float64) {
	return p.vars[v].lower, p.vars[v].upper
}

// VarName returns the name of v.
func (p *Problem) VarName(v Var) string { return p.vars[v].name }

// ConName returns the name of c.
func (p *Problem) ConName(c Con) string { return p.cons[c].name }

// ConSense returns the sense of c.
func (p *Problem) ConSense(c Con) Sense { return p.cons[c].sense }

// ConRHS returns the right-hand side of c.
func (p *Problem) ConRHS(c Con) float64 { return p.cons[c].rhs }

// Coef returns the coefficient of v in c (zero if absent).
func (p *Problem) Coef(c Con, v Var) float64 {
	for _, e := range p.vars[v].col {
		if e.row == int(c) {
			return e.coef
		}
	}
	return 0
}

// NumNonzeros returns the total number of stored coefficients.
func (p *Problem) NumNonzeros() int {
	n := 0
	for i := range p.vars {
		n += len(p.vars[i].col)
	}
	return n
}

// Objective evaluates the objective at point x, which must have one entry
// per variable.
func (p *Problem) Objective(x []float64) float64 {
	if len(x) != len(p.vars) {
		panic(fmt.Sprintf("lp: Objective: got %d values for %d variables", len(x), len(p.vars)))
	}
	obj := 0.0
	for i := range p.vars {
		obj += p.vars[i].cost * x[i]
	}
	return obj
}

// Activity returns the row activities A·x.
func (p *Problem) Activity(x []float64) []float64 {
	if len(x) != len(p.vars) {
		panic(fmt.Sprintf("lp: Activity: got %d values for %d variables", len(x), len(p.vars)))
	}
	act := make([]float64, len(p.cons))
	for i := range p.vars {
		if x[i] == 0 {
			continue
		}
		for _, e := range p.vars[i].col {
			act[e.row] += e.coef * x[i]
		}
	}
	return act
}

// CheckFeasible reports whether x satisfies all bounds and constraints to
// within tol, returning a descriptive error for the first violation found.
func (p *Problem) CheckFeasible(x []float64, tol float64) error {
	if len(x) != len(p.vars) {
		return fmt.Errorf("lp: CheckFeasible: got %d values for %d variables", len(x), len(p.vars))
	}
	for i := range p.vars {
		v := &p.vars[i]
		if x[i] < v.lower-tol || x[i] > v.upper+tol {
			return fmt.Errorf("lp: variable %q = %g violates bounds [%g, %g]", v.name, x[i], v.lower, v.upper)
		}
	}
	act := p.Activity(x)
	for j := range p.cons {
		c := &p.cons[j]
		// Scale the tolerance by the row magnitude so that rows with
		// large coefficients (e.g. byte-denominated capacities) are not
		// spuriously flagged.
		rtol := tol * (1 + math.Abs(c.rhs) + math.Abs(act[j]))
		switch c.sense {
		case LE:
			if act[j] > c.rhs+rtol {
				return fmt.Errorf("lp: constraint %q: %g > %g", c.name, act[j], c.rhs)
			}
		case GE:
			if act[j] < c.rhs-rtol {
				return fmt.Errorf("lp: constraint %q: %g < %g", c.name, act[j], c.rhs)
			}
		case EQ:
			if math.Abs(act[j]-c.rhs) > rtol {
				return fmt.Errorf("lp: constraint %q: %g != %g", c.name, act[j], c.rhs)
			}
		}
	}
	return nil
}
