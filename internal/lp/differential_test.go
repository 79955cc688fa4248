package lp

import (
	"math"
	"math/rand"
	"testing"
)

// lipsShapedLP builds a randomized LP with the online model's silhouette:
// per-job placement flows (EQ rows), store capacities (LE), job coverage
// (GE), machine CPU capacities (LE), data-existence linking rows (LE 0)
// and per-(job,machine) transfer-time rows (LE), with every column
// carrying at most 4 nonzeros and a finite upper bound.
//
// All base data is drawn from rng; when prng is non-nil, capacities,
// horizons and costs are additionally perturbed by a few percent. Calling
// with the same rng seed and prng == nil therefore reproduces the exact
// base problem — the pair (base, perturbed) models two consecutive epochs
// of the same LP.
func lipsShapedLP(jobs, machines, stores int, rng, prng *rand.Rand) *Problem {
	nudge := func(v float64) float64 {
		if prng == nil {
			return v
		}
		return v * (1 + 0.08*(prng.Float64()-0.5))
	}
	p := New("lips-shaped")

	totalSize := 0.0
	sizes := make([]float64, jobs)
	for k := range sizes {
		sizes[k] = 1 + rng.Float64()*3
		totalSize += sizes[k]
	}
	capRows := make([]Con, stores)
	for m := range capRows {
		capRows[m] = p.AddCon("cap", LE, nudge(totalSize*(0.6+rng.Float64())))
	}
	cpuRows := make([]Con, machines)
	for l := range cpuRows {
		cpuRows[l] = p.AddCon("cpu", LE, nudge(400+rng.Float64()*1600))
	}

	for k := 0; k < jobs; k++ {
		demand := 20 + rng.Float64()*150

		// Placement flows: exactly one unit of job k's data distributed
		// over the stores (3 nonzeros per flow column).
		place := p.AddCon("place", EQ, 1)
		existRows := make([]Con, stores)
		for m := 0; m < stores; m++ {
			existRows[m] = p.AddCon("exist", LE, 0)
		}
		for m := 0; m < stores; m++ {
			f := p.AddVar("xd", 0, 1, nudge(rng.Float64()*2*sizes[k]))
			p.SetCoef(place, f, 1)
			p.SetCoef(capRows[m], f, sizes[k])
			p.SetCoef(existRows[m], f, -1)
		}

		// Task assignment columns (4 nonzeros each, finite upper bound).
		cover := p.AddCon("job", GE, 1)
		for l := 0; l < machines; l++ {
			xfer := p.AddCon("xfer", LE, nudge(300+rng.Float64()*300))
			for m := 0; m < stores; m++ {
				ub := 0.4 + rng.Float64()*0.6
				price := 1 + rng.Float64()*5
				v := p.AddVar("xt", 0, ub, nudge(demand*price+rng.Float64()*40))
				p.SetCoef(cover, v, 1)
				p.SetCoef(cpuRows[l], v, demand)
				p.SetCoef(existRows[m], v, 1)
				p.SetCoef(xfer, v, nudge(20+rng.Float64()*100))
			}
		}
	}
	return p
}

// relDiff is the relative objective disagreement between two solves.
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Min(math.Abs(a), math.Abs(b)))
}

// TestDifferentialColdWarmDense cross-checks three solve paths on
// randomized LiPS-shaped LPs: the revised simplex from a cold start, the
// same solver warm-started from the optimal basis of a perturbed copy of
// the problem (the epoch-to-epoch scenario), and the dense tableau
// reference implementation. All three must agree on the objective to
// 1e-6 and return primal-feasible points.
func TestDifferentialColdWarmDense(t *testing.T) {
	const trials = 30
	warmAccepted := 0
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
		shape := rand.New(rand.NewSource(seed))
		jobs := 2 + shape.Intn(6)
		machines := 2 + shape.Intn(4)
		stores := 2 + shape.Intn(4)

		base := lipsShapedLP(jobs, machines, stores, rand.New(rand.NewSource(seed)), nil)
		perturbed := lipsShapedLP(jobs, machines, stores, rand.New(rand.NewSource(seed)),
			rand.New(rand.NewSource(seed+7)))

		// The perturbed copy plays the previous epoch: its optimum basis
		// seeds the warm solve of the base problem.
		psol, err := perturbed.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: perturbed solve: %v", trial, err)
		}

		cold, err := base.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		dense, err := base.SolveDense(0)
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		if cold.Status != dense.Status {
			t.Fatalf("trial %d: cold status %v, dense status %v", trial, cold.Status, dense.Status)
		}
		if cold.Status != Optimal {
			continue // both agree the instance is degenerate in the same way
		}

		warm, err := base.Solve(Options{WarmStart: psol.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		if warm.Status != Optimal {
			t.Fatalf("trial %d: warm status %v", trial, warm.Status)
		}
		if warm.WarmStarted {
			warmAccepted++
		}

		if d := relDiff(cold.Objective, dense.Objective); d > 1e-6 {
			t.Errorf("trial %d (j=%d m=%d s=%d): cold %.12g vs dense %.12g (rel %.2g)",
				trial, jobs, machines, stores, cold.Objective, dense.Objective, d)
		}
		if d := relDiff(cold.Objective, warm.Objective); d > 1e-6 {
			t.Errorf("trial %d (j=%d m=%d s=%d): cold %.12g vs warm %.12g (rel %.2g, accepted=%v)",
				trial, jobs, machines, stores, cold.Objective, warm.Objective, d, warm.WarmStarted)
		}
		for name, sol := range map[string]*Solution{"cold": cold, "warm": warm, "dense": dense} {
			if err := base.CheckFeasible(sol.X, 1e-6); err != nil {
				t.Errorf("trial %d: %s point infeasible: %v", trial, name, err)
			}
		}
	}
	// The fallback path is legal per-instance, but the suite is only
	// meaningful if the warm path actually runs.
	if warmAccepted == 0 {
		t.Fatalf("no trial accepted a warm start — warm path untested")
	}
	t.Logf("warm start accepted in %d/%d trials", warmAccepted, trials)
}

// TestWarmStartFromOwnOptimum re-solves a problem from its own optimal
// basis: the solve must be accepted, skip phase 1, and terminate in O(1)
// iterations at the same objective.
func TestWarmStartFromOwnOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := lipsShapedLP(6, 4, 4, rng, nil)
	cold, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Fatalf("status %v", cold.Status)
	}
	if cold.Basis == nil {
		t.Fatal("optimal solve returned no basis")
	}
	warm, err := p.Solve(Options{WarmStart: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("own optimal basis rejected")
	}
	if warm.Phase1 != 0 {
		t.Fatalf("warm start ran %d phase-1 iterations", warm.Phase1)
	}
	if warm.Iters > 2 {
		t.Fatalf("re-solve from optimum took %d iterations", warm.Iters)
	}
	if d := relDiff(cold.Objective, warm.Objective); d > 1e-9 {
		t.Fatalf("objective moved: %.12g vs %.12g", cold.Objective, warm.Objective)
	}
}

// junkedLiPSLP builds a LiPS-shaped LP and injects degenerate structure
// around it: empty rows, fixed variables wired into capacity rows, empty
// columns, singleton rows (one tightening an existing column's bound, one
// the only row of a profitable column), and a dominated duplicate-column
// pair. The junk is constructed so the optimal solution of the core LP is
// perturbed only by the forced values, keeping the instance feasible.
func junkedLiPSLP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	jobs := 2 + rng.Intn(4)
	machines := 2 + rng.Intn(3)
	stores := 2 + rng.Intn(3)
	p := lipsShapedLP(jobs, machines, stores, rand.New(rand.NewSource(seed)), nil)

	// Empty rows, trivially satisfied.
	p.AddCon("junk-empty-le", LE, 1+rng.Float64())
	p.AddCon("junk-empty-ge", GE, -1-rng.Float64())
	p.AddCon("junk-empty-eq", EQ, 0)

	// Fixed variables attached to capacity rows (small coefficient and
	// value so the right-hand sides they eat into stay comfortably
	// positive).
	for t := 0; t < 3; t++ {
		v := p.AddVar("junk-fixed", 0.5, 0.5, rng.Float64()*10-5)
		p.SetCoef(Con(rng.Intn(stores+machines)), v, 0.1+0.4*rng.Float64())
	}

	// Empty columns, each optimal at its cheaper bound.
	p.AddVar("junk-empty-pos", 0, 5, 1+rng.Float64())
	p.AddVar("junk-empty-neg", 0, 5, -1-rng.Float64())
	p.AddVar("junk-empty-zero", 1, 3, 0)

	// A profitable column bounded only by its singleton row.
	w := p.AddVar("junk-chain", 0, Inf, -(1 + rng.Float64()))
	cw := p.AddCon("junk-single", LE, 1+rng.Float64())
	p.SetCoef(cw, w, 1+rng.Float64())

	// Singleton row tightening the first xd flow's upper bound; the job's
	// other flows keep the EQ placement row feasible.
	sr := p.AddCon("junk-tighten", LE, 0.5+0.4*rng.Float64())
	p.SetCoef(sr, Var(0), 1)

	// Dominated pair over two shared LE rows: the winner is unbounded
	// above, no more expensive, and at least as light in both rows.
	dj := p.AddVar("junk-dom-winner", 0, Inf, 5+rng.Float64())
	dk := p.AddVar("junk-dom-loser", 0, 8, 6+rng.Float64())
	for _, c := range []Con{Con(0), Con(stores)} {
		a := 0.5 + rng.Float64()
		p.SetCoef(c, dj, a)
		p.SetCoef(c, dk, a+0.2)
	}
	return p
}

// TestJunkedLPsAgainstDense solves randomized LiPS-shaped LPs with injected
// degenerate junk: the solve must agree with the dense tableau reference
// on status and objective and return a feasible primal point. An empty row
// that cannot hold (0 ≤ −1) must come back Infeasible with the phase-1
// certificate naming that row.
func TestJunkedLPsAgainstDense(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seed := int64(4000 + trial)
		p := junkedLiPSLP(seed)

		sol, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: solve: %v", trial, err)
		}
		dense, err := p.SolveDense(0)
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		if sol.Status != dense.Status {
			t.Fatalf("trial %d: status %v, dense status %v", trial, sol.Status, dense.Status)
		}
		if sol.Status != Optimal {
			continue
		}
		if d := relDiff(sol.Objective, dense.Objective); d > 1e-6 {
			t.Errorf("trial %d: objective %.12g vs dense %.12g (rel %.2g)",
				trial, sol.Objective, dense.Objective, d)
		}
		if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
			t.Errorf("trial %d: point infeasible: %v", trial, err)
		}
	}

	p := New("empty-row")
	x := p.AddVar("x", 0, 1, 1)
	p.SetCoef(p.AddCon("cap", LE, 1), x, 1)
	p.AddCon("never", LE, -1)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible || len(sol.Dual) != 2 || sol.Dual[0] != 0 || sol.Dual[1] == 0 {
		t.Errorf("0 ≤ −1: status %v, duals %v; want Infeasible with a certificate on row 1 alone", sol.Status, sol.Dual)
	}
}

// TestWarmStartShapeMismatch verifies the silent cold fallback when the
// offered basis belongs to a differently-shaped problem.
func TestWarmStartShapeMismatch(t *testing.T) {
	a := lipsShapedLP(4, 3, 3, rand.New(rand.NewSource(21)), nil)
	b := lipsShapedLP(5, 3, 3, rand.New(rand.NewSource(22)), nil)
	asol, err := a.Solve(Options{})
	if err != nil || asol.Status != Optimal {
		t.Fatalf("solve a: %v / %v", err, asol.Status)
	}
	cold, err := b.Solve(Options{})
	if err != nil || cold.Status != Optimal {
		t.Fatalf("solve b: %v / %v", err, cold.Status)
	}
	warm, err := b.Solve(Options{WarmStart: asol.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmStarted {
		t.Fatal("accepted a basis from a differently-shaped problem")
	}
	if warm.Status != Optimal || relDiff(cold.Objective, warm.Objective) > 1e-9 {
		t.Fatalf("fallback diverged: %v %.12g vs %.12g", warm.Status, warm.Objective, cold.Objective)
	}
}
