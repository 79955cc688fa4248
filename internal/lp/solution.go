package lp

import "fmt"

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can be decreased without limit.
	Unbounded
	// IterLimit means the iteration budget was exhausted first.
	IterLimit
)

// String returns a human-readable status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64   // objective value at X (valid when Status == Optimal)
	X         []float64 // one value per structural variable
	// Dual holds one multiplier per constraint row. On Optimal these are
	// the usual LP duals; on Infeasible they are the phase-1 duals, a
	// Farkas-style infeasibility certificate.
	Dual []float64
	// Stats is what the solve cost.
	Stats

	// Basis is the final simplex basis, reusable as Options.WarmStart for
	// a follow-up solve of a structurally identical problem (same variable
	// and constraint counts; bounds and right-hand sides may differ). Nil
	// when the solve did not reach an expressible optimal basis — e.g. a
	// degenerate artificial variable survived phase 2.
	Basis *Basis
	// WarmStarted reports whether the warm-start basis was accepted (it
	// validated and was primal feasible under this problem's data). When
	// false despite Options.WarmStart, the solver fell back to a cold
	// two-phase start.
	WarmStarted bool
	// Pivots is the pivot sequence, recorded only under test. Determinism
	// tests use it to assert that a change to the solver's internals left
	// the path alone.
	Pivots []Pivot

	basis Basis // Basis's storage, reused by the next solve into this Solution
}

// reset clears sol for a solve into it, keeping the storage of X, Dual
// and the basis.
func (sol *Solution) reset() {
	*sol = Solution{X: sol.X[:0], Dual: sol.Dual[:0], basis: sol.basis}
}

// Pivot records one simplex iteration's basis change. Leaving is -1 for a
// bound flip (the entering column crossed to its opposite bound without a
// basis change).
type Pivot struct {
	Entering int32
	Leaving  int32
}

// Value returns the solution value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

// Basis captures a simplex basis over the structural and slack columns of
// a problem with NumVars variables and NumCons rows. Treat it as opaque:
// obtain one from Solution.Basis and pass it to Options.WarmStart, or
// carry it onto columns and rows appended since with Problem.ExtendBasis.
type Basis struct {
	NumVars, NumCons int
	// RowCol[i] is the column basic in row i: j < NumVars is structural
	// variable j, NumVars+i is the slack of row i.
	RowCol []int32
	// ColStat[j] is the rest position of nonbasic column j (one of the
	// Basis* codes below); entries of basic columns are ignored.
	ColStat []int8
}

// Rest-position codes for Basis.ColStat. The numeric values match the
// solver's internal column statuses, so a Solution.Basis can be fed back
// unchanged.
const (
	BasisAtLower int8 = 0 // resting at its lower bound
	BasisAtUpper int8 = 1 // resting at its upper bound
	BasisFree    int8 = 2 // free column pinned at zero
	// BasisAuto marks a column with no recorded rest position — e.g. one
	// appended after the basis was captured, which ExtendBasis marks so.
	// The solver places such columns at their default starting bound.
	BasisAuto int8 = 3
)

// Options tunes the simplex solver. The zero value selects sensible
// defaults via (*Options).withDefaults.
type Options struct {
	// MaxIters bounds the total number of simplex iterations across both
	// phases. 0 means 200·(rows+cols)+10000.
	MaxIters int
	// Bland forces Bland's anti-cycling rule from the first iteration.
	// The default is Devex pricing with an automatic Bland fallback
	// after a long degenerate stall.
	Bland bool
	// WarmStart seeds the solve with a basis from a previous solve of a
	// structurally identical problem (same variable and constraint
	// counts). If the basis does not validate, is singular, or is primal
	// infeasible under the current bounds and right-hand sides, the
	// solver silently falls back to a cold two-phase start; an accepted
	// warm start skips phase 1 entirely. Solution.WarmStarted reports
	// which path ran.
	WarmStart *Basis
	// Deprecated: Presolve has no effect; there is no presolve pass. Its
	// last reader is bench/replay.go.
	Presolve PresolveMode

	// tol is the feasibility and optimality tolerance; 0 means 1e-9.
	// recordPivots fills Solution.Pivots with the pivot sequence. Tests
	// set these; nothing else does.
	tol          float64
	recordPivots bool
	// pricingCheck, when non-nil, is shown every primal pricing step.
	// Tests hang the full-scan reference pricer here; nothing else sets it.
	pricingCheck pricingChecker
	// factor, when non-nil, builds the basis factorization in place of the
	// sparse LU. Tests install the dense inverse here; nothing else sets it.
	factor func(*simplexState) factorizer
}

// pricingChecker observes the incremental pricer (pricing.go): priced
// after each choice of entering column, reweighted after each Devex
// update, before the factorization moves on from the pivot row, and
// optimal before a phase reports Optimal.
type pricingChecker interface {
	priced(s *simplexState, cost []float64, useBland bool, entering int, enterDir float64)
	reweighted(s *simplexState, prowOld []float64, pivot float64, entering, outVar int)
	optimal(s *simplexState, cost []float64)
}

// Deprecated: PresolveMode is the type of Options.Presolve, which has no
// effect. Its last reader is bench/replay.go.
type PresolveMode int8

// Deprecated: PresolveOff has no effect. Its last reader is
// bench/replay.go.
const PresolveOff PresolveMode = 1

func (o Options) withDefaults(rows, cols int) Options {
	if o.MaxIters == 0 {
		o.MaxIters = 200*(rows+cols) + 10000
	}
	if o.tol == 0 {
		o.tol = 1e-9
	}
	return o
}
