// Package lp implements linear programming for the LiPS scheduler.
//
// The package provides a problem builder (Problem) and one solver, a
// two-phase bounded-variable revised simplex (Solve). Problems are stored
// column-wise and sparse, because LiPS scheduling LPs have at most four
// nonzeros per column. A builder that knows a column's entries up front
// adds it whole (AddCol); names are kept only for what was given one, and
// generated models install a Namer that derives them from the index.
//
// All problems are minimization problems. Variables carry explicit bounds
// [Lower, Upper]; upper bounds are handled by the bounded-variable pivoting
// rule rather than by extra constraint rows, which keeps the basis small.
package lp

import (
	"fmt"
	"math"
	"slices"
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
	lower float64
	upper float64
	cost  float64
	col   []nz
}

type constraint struct {
	sense Sense
	rhs   float64
}

// Entry is one coefficient of a column handed to AddCol.
type Entry struct {
	Con  Con
	Coef float64
}

// Namer derives the names of a generated problem's variables and
// constraints from their indices, so the builder does not format and store
// thousands of strings nobody reads. See SetNamer.
type Namer interface {
	VarName(Var) string
	ConName(Con) string
}

// Problem is a linear program under construction. The zero value is not
// usable; create problems with New.
type Problem struct {
	name string
	vars []variable
	cons []constraint

	// arena is the chunk AddCol carves columns from. A full chunk is
	// replaced, not grown: the columns already cut from it keep it alive.
	arena []nz
	nnz   int

	// varNames and conNames hold the names passed to AddVar and AddCon,
	// grown only as far as the last non-empty one; namer answers for the
	// rest.
	varNames []string
	conNames []string
	namer    Namer
}

// minArenaChunk is the smallest arena chunk, in entries.
const minArenaChunk = 256

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

// Reset empties p and renames it, keeping the storage of its variables,
// rows, name tables and the last arena chunk, so a builder that makes one
// problem after another of about the same size stops allocating once the
// first few have sized them. The namer is dropped. Every column of the old
// problem is invalid afterwards: the next AddCol overwrites its entries.
func (p *Problem) Reset(name string) {
	clear(p.vars) // drop the old columns' slices
	clear(p.varNames)
	clear(p.conNames)
	*p = Problem{
		name: name, vars: p.vars[:0], cons: p.cons[:0], arena: p.arena[:0],
		varNames: p.varNames[:0], conNames: p.conNames[:0],
	}
}

// Grow reserves room for vars more variables, cons more constraint rows
// and nnz more AddCol entries, so a builder that knows its sizes pays one
// allocation for each instead of amortized doubling. A short arena is
// replaced by a chunk of at least twice its capacity, so a problem that is
// Reset and rebuilt comes to hold all its entries in one chunk.
func (p *Problem) Grow(vars, cons, nnz int) {
	p.vars = slices.Grow(p.vars, vars)
	p.cons = slices.Grow(p.cons, cons)
	if cap(p.arena)-len(p.arena) < nnz {
		p.arena = make([]nz, 0, max(nnz, 2*cap(p.arena)))
	}
}

// varFault says what makes a new variable a program construction bug —
// inverted bounds, an infinite bound of the wrong sign, a NaN — or returns
// "" for a sound one.
func varFault(lower, upper, cost float64) string {
	switch {
	case lower > upper:
		return fmt.Sprintf("has inverted bounds [%g, %g]", lower, upper)
	case math.IsInf(lower, 1) || math.IsInf(upper, -1):
		return "has infinite bound of the wrong sign"
	case math.IsNaN(lower) || math.IsNaN(upper) || math.IsNaN(cost):
		return "has NaN bound or cost"
	}
	return ""
}

// checkCoef panics on a non-finite coefficient or a constraint index that
// was never declared. v, which may be the variable about to be added, only
// labels the message. The test is split from the report, and written with
// one comparison per operand, so that it inlines into AddCol's loop:
// coef-coef is nonzero (NaN) exactly when coef is NaN or infinite.
func (p *Problem) checkCoef(c Con, v Var, coef float64) {
	if coef-coef != 0 || uint(c) >= uint(len(p.cons)) {
		p.coefFault(c, v, coef)
	}
}

func (p *Problem) coefFault(c Con, v Var, coef float64) {
	if math.IsNaN(coef) || math.IsInf(coef, 0) {
		panic(fmt.Sprintf("lp: non-finite coefficient %g for var %d in con %d", coef, v, c))
	}
	panic(fmt.Sprintf("lp: constraint index %d out of range [0,%d)", c, len(p.cons)))
}

// AddVar adds a variable with bounds [lower, upper] and objective
// coefficient cost, returning its handle. AddVar panics if the bounds are
// inverted or lower is +Inf, since that is a program construction bug.
func (p *Problem) AddVar(name string, lower, upper, cost float64) Var {
	if fault := varFault(lower, upper, cost); fault != "" {
		panic(fmt.Sprintf("lp: variable %q %s", name, fault))
	}
	p.vars = append(p.vars, variable{lower: lower, upper: upper, cost: cost})
	setName(&p.varNames, len(p.vars)-1, name)
	return Var(len(p.vars) - 1)
}

// AddCol adds a variable together with its whole column: AddVar followed
// by one SetCoef per entry, in one call and without a per-column
// allocation. Entries must name declared rows in strictly ascending order
// — one canonical stored order, and no duplicates to accumulate; AddCol
// panics otherwise, and on the values AddVar and SetCoef reject. Zero
// coefficients are skipped. The entries are copied; the variable takes its
// name from the Namer.
func (p *Problem) AddCol(lower, upper, cost float64, entries []Entry) Var {
	v := Var(len(p.vars))
	if fault := varFault(lower, upper, cost); fault != "" {
		panic(fmt.Sprintf("lp: variable %q %s", p.VarName(v), fault))
	}
	if cap(p.arena)-len(p.arena) < len(entries) {
		p.arena = make([]nz, 0, max(minArenaChunk, len(entries), 2*cap(p.arena)))
	}
	a := len(p.arena)
	for i, e := range entries {
		p.checkCoef(e.Con, v, e.Coef)
		if i > 0 && e.Con <= entries[i-1].Con {
			panic(fmt.Sprintf("lp: AddCol entries not in ascending row order: con %d after con %d", e.Con, entries[i-1].Con))
		}
		if e.Coef != 0 {
			p.arena = append(p.arena, nz{row: int(e.Con), coef: e.Coef})
		}
	}
	b := len(p.arena)
	p.nnz += b - a
	// The full slice expression caps the column at its own end, so a
	// later SetCoef on it reallocates instead of overwriting the next
	// column in the chunk.
	p.vars = append(p.vars, variable{lower: lower, upper: upper, cost: cost, col: p.arena[a:b:b]})
	return v
}

// AddCon adds an empty constraint row with the given sense and right-hand
// side, returning its handle. Coefficients are attached with SetCoef or
// arrive with their column in AddCol.
func (p *Problem) AddCon(name string, sense Sense, rhs float64) Con {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: constraint %q has non-finite rhs %g", name, rhs))
	}
	p.cons = append(p.cons, constraint{sense: sense, rhs: rhs})
	setName(&p.conNames, len(p.cons)-1, name)
	return Con(len(p.cons) - 1)
}

// SetCoef sets the coefficient of variable v in constraint c. Setting the
// same (c, v) pair twice accumulates, which is convenient for objective
// terms assembled from several model components. Zero coefficients are
// ignored. SetCoef panics on an index that was never declared.
func (p *Problem) SetCoef(c Con, v Var, coef float64) {
	p.checkCoef(c, v, coef)
	if v < 0 || int(v) >= len(p.vars) {
		panic(fmt.Sprintf("lp: variable index %d out of range [0,%d)", v, len(p.vars)))
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
	p.nnz++
}

// Cost returns the current objective coefficient of v.
func (p *Problem) Cost(v Var) float64 { return p.vars[v].cost }

// Bounds returns the bounds of v.
func (p *Problem) Bounds(v Var) (lower, upper float64) {
	return p.vars[v].lower, p.vars[v].upper
}

// SetNamer installs the source of names for every variable and constraint
// that was not given one when it was added.
func (p *Problem) SetNamer(n Namer) { p.namer = n }

// setName records a non-empty name for index i in a side table.
func setName(names *[]string, i int, name string) {
	if name == "" {
		return
	}
	if n := i + 1 - len(*names); n > 0 {
		*names = append(*names, make([]string, n)...)
	}
	(*names)[i] = name
}

// VarName returns the name of v: the one it was added with, else the
// Namer's, else empty.
func (p *Problem) VarName(v Var) string {
	if int(v) < len(p.varNames) && p.varNames[v] != "" {
		return p.varNames[v]
	}
	if p.namer != nil {
		return p.namer.VarName(v)
	}
	return ""
}

// ConName returns the name of c, resolved like VarName.
func (p *Problem) ConName(c Con) string {
	if int(c) < len(p.conNames) && p.conNames[c] != "" {
		return p.conNames[c]
	}
	if p.namer != nil {
		return p.namer.ConName(c)
	}
	return ""
}

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
func (p *Problem) NumNonzeros() int { return p.nnz }

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
			return fmt.Errorf("lp: variable %q = %g violates bounds [%g, %g]", p.VarName(Var(i)), x[i], v.lower, v.upper)
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
				return fmt.Errorf("lp: constraint %q: %g > %g", p.ConName(Con(j)), act[j], c.rhs)
			}
		case GE:
			if act[j] < c.rhs-rtol {
				return fmt.Errorf("lp: constraint %q: %g < %g", p.ConName(Con(j)), act[j], c.rhs)
			}
		case EQ:
			if math.Abs(act[j]-c.rhs) > rtol {
				return fmt.Errorf("lp: constraint %q: %g != %g", p.ConName(Con(j)), act[j], c.rhs)
			}
		}
	}
	return nil
}
