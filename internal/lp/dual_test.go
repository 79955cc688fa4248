package lp

import (
	"math"
	"math/rand"
	"testing"
)

// driftRHS shifts every finite right-hand side of p's inequality rows by
// up to ±frac, deterministically per row — the re-solve-after-bound-change
// pattern epochs produce (capacity and deadline drift). Equality rows are
// left alone so feasibility is not destroyed outright.
func driftRHS(p *Problem, frac float64, rng *rand.Rand) {
	for i := 0; i < p.NumCons(); i++ {
		c := Con(i)
		if p.ConSense(c) == EQ {
			continue
		}
		rhs := p.ConRHS(c)
		p.SetRHS(c, rhs*(1+frac*(2*rng.Float64()-1)))
	}
}

// TestDualResolveMatchesColdLiPSShaped is the core dual-simplex
// differential: solve, drift the right-hand sides far past the warm-start
// feasibility tolerance, then re-solve warm with Options.Dual and compare
// against a cold solve of the drifted problem. The dual path must accept
// the stale basis (WarmStarted) and land on the cold objective.
func TestDualResolveMatchesColdLiPSShaped(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sawDualPivots := false
	for trial := 0; trial < 30; trial++ {
		jobs := 3 + rng.Intn(10)
		machines := 3 + rng.Intn(8)
		stores := 2 + rng.Intn(6)
		p := lipsShapedLP(jobs, machines, stores, rand.New(rand.NewSource(int64(100+trial))), rng)
		base, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: base: %v", trial, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			continue
		}
		driftRHS(p, 0.15, rng)
		cold, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		warm, err := p.Solve(Options{WarmStart: base.Basis, Dual: true})
		if err != nil {
			t.Fatalf("trial %d: warm+dual: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm+dual status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status != Optimal {
			continue
		}
		if d := relDiff(warm.Objective, cold.Objective); d > 1e-6 {
			t.Errorf("trial %d: warm+dual objective %g, cold %g (rel %g)", trial, warm.Objective, cold.Objective, d)
		}
		if err := p.CheckFeasible(warm.X, 1e-6); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		if warm.DualIters > 0 {
			sawDualPivots = true
			if !warm.WarmStarted {
				t.Errorf("trial %d: dual pivots ran but WarmStarted is false", trial)
			}
		}
	}
	if !sawDualPivots {
		t.Error("no trial exercised the dual repair path; drift too small or entry condition broken")
	}
}

// TestDualResolveMatchesColdRandom fuzzes the dual differential over the
// random corpus.
func TestDualResolveMatchesColdRandom(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0xd0a1))
		p := randomProblem(rng)
		base, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: base: %v", seed, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			continue
		}
		driftRHS(p, 0.2, rng)
		cold, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		warm, err := p.Solve(Options{WarmStart: base.Basis, Dual: true})
		if err != nil {
			t.Fatalf("seed %d: warm+dual: %v", seed, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("seed %d: warm+dual status %v, cold %v", seed, warm.Status, cold.Status)
		}
		if cold.Status != Optimal {
			continue
		}
		if d := relDiff(warm.Objective, cold.Objective); d > 1e-6 {
			t.Errorf("seed %d: warm+dual objective %g, cold %g (rel %g)", seed, warm.Objective, cold.Objective, d)
		}
	}
}

// TestDualResolveHardCorpus drifts the hard problems and checks the dual
// path against a cold re-solve — Klee–Minty's huge coefficient spread and
// the degenerate assignment are where a sloppy ratio test would show.
func TestDualResolveHardCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range hardCorpus() {
		p := tc.p()
		base, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("%s: base: %v", tc.name, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			continue
		}
		driftRHS(p, 0.1, rng)
		cold, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("%s: cold: %v", tc.name, err)
		}
		warm, err := p.Solve(Options{WarmStart: base.Basis, Dual: true})
		if err != nil {
			t.Fatalf("%s: warm+dual: %v", tc.name, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("%s: warm+dual status %v, cold %v", tc.name, warm.Status, cold.Status)
		}
		if cold.Status == Optimal {
			if d := relDiff(warm.Objective, cold.Objective); d > 1e-6 {
				t.Errorf("%s: warm+dual objective %g, cold %g (rel %g)", tc.name, warm.Objective, cold.Objective, d)
			}
		}
	}
}

// TestDualOffKeepsLegacyFallback pins the default behavior: without
// Options.Dual a primal-infeasible warm basis is rejected and the solver
// starts cold, exactly as before this option existed.
func TestDualOffKeepsLegacyFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := lipsShapedLP(8, 6, 4, rand.New(rand.NewSource(7)), rng)
	base, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != Optimal || base.Basis == nil {
		t.Fatalf("unusable base solve: %v", base.Status)
	}
	// Massive drift guarantees the stale basis is primal infeasible.
	for i := 0; i < p.NumCons(); i++ {
		c := Con(i)
		if p.ConSense(c) == LE && p.ConRHS(c) > 0 {
			p.SetRHS(c, p.ConRHS(c)*0.3)
		}
	}
	warm, err := p.Solve(Options{WarmStart: base.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmStarted {
		t.Fatal("expected the drifted basis to be rejected without Options.Dual")
	}
	if warm.DualIters != 0 {
		t.Fatalf("DualIters = %d without Options.Dual", warm.DualIters)
	}
	dual, err := p.Solve(Options{WarmStart: base.Basis, Dual: true})
	if err != nil {
		t.Fatal(err)
	}
	if dual.Status != warm.Status {
		t.Fatalf("dual status %v, cold-fallback status %v", dual.Status, warm.Status)
	}
	if warm.Status == Optimal {
		if d := relDiff(dual.Objective, warm.Objective); d > 1e-6 {
			t.Errorf("dual objective %g, cold %g (rel %g)", dual.Objective, warm.Objective, d)
		}
	}
}

// TestDualBoundDrift drifts variable bounds (not RHS) and checks the dual
// repair: bound changes also leave reduced costs untouched.
func TestDualBoundDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		p := lipsShapedLP(4+rng.Intn(6), 3+rng.Intn(5), 2+rng.Intn(4),
			rand.New(rand.NewSource(int64(200+trial))), rng)
		base, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			continue
		}
		for j := 0; j < p.NumVars(); j++ {
			v := Var(j)
			lo, hi := p.Bounds(v)
			if !math.IsInf(hi, 1) && hi > 0 {
				p.SetBounds(v, lo, hi*(0.7+0.3*rng.Float64()))
			}
		}
		cold, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		warm, err := p.Solve(Options{WarmStart: base.Basis, Dual: true})
		if err != nil {
			t.Fatalf("trial %d: warm+dual: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm+dual status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status != Optimal {
			continue
		}
		if d := relDiff(warm.Objective, cold.Objective); d > 1e-6 {
			t.Errorf("trial %d: warm+dual objective %g, cold %g (rel %g)", trial, warm.Objective, cold.Objective, d)
		}
	}
}
