package lp

import (
	"math"
	"strings"
	"testing"
)

// duplicateColumnProblem builds an LP with two identical structural
// columns, so a basis holding both is exactly singular.
func duplicateColumnProblem() (*Problem, Var, Var) {
	p := New("dup")
	x := p.AddVar("x", 0, 10, 1)
	y := p.AddVar("y", 0, 10, 1)
	c0 := p.AddCon("r0", LE, 4)
	c1 := p.AddCon("r1", LE, 3)
	p.SetCoef(c0, x, 1)
	p.SetCoef(c0, y, 1)
	p.SetCoef(c1, x, 1)
	p.SetCoef(c1, y, 1)
	return p, x, y
}

// TestRefactorizeSingularBasis drives both factorizations directly into a
// singular basis and checks that they report it instead of producing a
// bogus factorization.
func TestRefactorizeSingularBasis(t *testing.T) {
	for _, fm := range factorModes {
		t.Run(fm.name, func(t *testing.T) {
			p, _, _ := duplicateColumnProblem()
			opts := Options{factor: fm.mk}.withDefaults(len(p.cons), len(p.vars))
			s := newSimplexState(p, opts)
			s.coldStart()
			// Force both duplicate structural columns basic: B is the
			// all-ones 2×2 matrix, rank 1.
			s.basis[0], s.basis[1] = 0, 1
			s.status[0], s.status[1] = basic, basic
			s.status[s.nStruct], s.status[s.nStruct+1] = atLower, atLower
			err := s.factor.refactorize()
			if err == nil {
				t.Fatal("refactorize() = nil, want singular-basis error")
			}
			if !strings.Contains(err.Error(), "singular") {
				t.Errorf("refactorize() error = %q, want mention of singularity", err)
			}
		})
	}
}

// TestWarmStartSingularBasisFallsBack feeds Solve a syntactically valid
// warm-start basis that is numerically singular and checks the solver
// silently falls back to a cold start and still reaches the optimum.
func TestWarmStartSingularBasisFallsBack(t *testing.T) {
	for _, fm := range factorModes {
		t.Run(fm.name, func(t *testing.T) {
			p, _, _ := duplicateColumnProblem()
			ws := &Basis{
				NumVars: 2, NumCons: 2,
				RowCol:  []int32{0, 1}, // both duplicate columns basic
				ColStat: []int8{0, 0, atLower, atLower},
			}
			sol, err := p.Solve(Options{factor: fm.mk, WarmStart: ws})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if sol.WarmStarted {
				t.Error("WarmStarted = true, want cold fallback from singular basis")
			}
			if sol.Status != Optimal {
				t.Fatalf("status = %v, want optimal", sol.Status)
			}
			if math.Abs(sol.Objective) > 1e-9 {
				t.Errorf("objective = %g, want 0", sol.Objective)
			}
		})
	}
}

// TestUnsafePivotTriggersRefactorize constructs a solve whose second pivot
// element is below the 1e-11 safety threshold, so iterate must refactorize
// and retry before accepting it.
func TestUnsafePivotTriggersRefactorize(t *testing.T) {
	for _, fm := range factorModes {
		t.Run(fm.name, func(t *testing.T) {
			p := New("tinypivot")
			x := p.AddVar("x", 0, Inf, -1)
			y := p.AddVar("y", 0, Inf, -2)
			c0 := p.AddCon("r0", LE, 1)
			c1 := p.AddCon("r1", LE, 1)
			p.SetCoef(c0, y, 1)
			p.SetCoef(c1, x, 1e-12)
			// tol below the pivot magnitude so the ratio test selects it;
			// the 1e-11 safety threshold still rejects it once.
			sol, err := p.Solve(Options{factor: fm.mk, tol: 1e-13})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if sol.Status != Optimal {
				t.Fatalf("status = %v, want optimal", sol.Status)
			}
			// y = 1 (first, safe pivot); x = 1e12 through the tiny pivot.
			if math.Abs(sol.X[int(y)]-1) > 1e-6 {
				t.Errorf("y = %g, want 1", sol.X[int(y)])
			}
			if math.Abs(sol.X[int(x)]-1e12) > 1e-6*1e12 {
				t.Errorf("x = %g, want 1e12", sol.X[int(x)])
			}
			// One refactorization from the unsafe-pivot retry plus the
			// final clean-up refactorization at extraction.
			if sol.Refactorizations < 2 {
				t.Errorf("Refactorizations = %d, want >= 2 (unsafe-pivot retry)",
					sol.Refactorizations)
			}
		})
	}
}
