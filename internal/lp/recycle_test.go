package lp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// recycleCase is one solve of the recycled-workspace corpus.
type recycleCase struct {
	name string
	p    *Problem
	opts Options
}

// recycleCorpus lists solves in an order that grows and shrinks both the
// row and the column count from one solve to the next, with infeasible,
// unbounded and iteration-limit exits between optimal ones, cold, warm
// and rejected-warm starts, and both pricing rules.
func recycleCorpus(t *testing.T) []recycleCase {
	var out []recycleCase
	add := func(name string, p *Problem, opts Options) {
		opts.recordPivots = true
		out = append(out, recycleCase{name, p, opts})
	}
	random := func(from, to int64) {
		for seed := from; seed < to; seed++ {
			add(fmt.Sprintf("random/%d", seed), randomProblem(rand.New(rand.NewSource(seed))), Options{})
		}
	}

	basis := func(p *Problem) *Basis {
		sol, err := solveFresh(p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if sol.Basis == nil {
			t.Fatalf("%s: status %v and no basis", p.Name(), sol.Status)
		}
		return sol.Basis
	}
	epochPrev := epochScaleLP(rand.New(rand.NewSource(78)))
	epochBasis := basis(epochPrev)
	lipsPrev := lipsShapedLP(12, 5, 4, rand.New(rand.NewSource(31)), rand.New(rand.NewSource(32)))
	lips := lipsShapedLP(12, 5, 4, rand.New(rand.NewSource(31)), nil)
	drifted := lipsShapedLP(12, 5, 4, rand.New(rand.NewSource(31)), nil)
	tightenLE(drifted, 0.9, rand.New(rand.NewSource(33)))

	infeasible := New("infeasible")
	x := infeasible.AddVar("x", 0, 1, 1)
	infeasible.SetCoef(infeasible.AddCon("cap", LE, 1), x, 1)
	infeasible.AddCon("never", LE, -1)
	unbounded := New("unbounded")
	y := unbounded.AddVar("y", 0, Inf, -1)
	unbounded.SetCoef(unbounded.AddCon("floor", GE, 1), y, 1)

	add("epoch/prev", epochPrev, Options{})
	random(0, 20)
	add("lips/cold", lips, Options{})
	for _, hc := range hardCorpus() {
		add("hard/"+hc.name, hc.p(), Options{})
	}
	add("epoch/cold", epochScaleLP(nil), Options{})
	add("infeasible", infeasible, Options{})
	add("lips/warm", lips, Options{WarmStart: basis(lipsPrev)})
	random(20, 40)
	add("epoch/phase1-limit", epochScaleLP(nil), Options{MaxIters: 40})
	add("unbounded", unbounded, Options{})
	add("lips/warm-rejected", drifted, Options{WarmStart: basis(lips)})
	for _, hc := range hardCorpus() {
		add("hard/"+hc.name+"/bland", hc.p(), Options{Bland: true})
	}
	add("junked", junkedLiPSLP(3), Options{})
	add("epoch/warm", epochScaleLP(nil), Options{WarmStart: epochBasis})
	random(40, 60)
	add("epoch/warm-limit", epochScaleLP(nil), Options{WarmStart: epochBasis, MaxIters: 10})
	add("sched-shaped", schedulingShapedLP(25, 4, 4, rand.New(rand.NewSource(3))), Options{})
	return out
}

// solveFresh solves on a newly allocated state, never the pool, into a
// new Solution.
func solveFresh(p *Problem, opts Options) (*Solution, error) {
	sol := new(Solution)
	if err := newSimplexState(p, opts.withDefaults(p.NumCons(), p.NumVars())).run(sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// solutionDiff describes the first way got differs from want, or returns
// "" when they agree on everything but wall-clock.
func solutionDiff(want, got *Solution) string {
	switch {
	case got.Status != want.Status:
		return fmt.Sprintf("status %v, want %v", got.Status, want.Status)
	case got.Iters != want.Iters || got.Phase1 != want.Phase1:
		return fmt.Sprintf("%d/%d iterations (phase 1), want %d/%d", got.Iters, got.Phase1, want.Iters, want.Phase1)
	case got.Refactorizations != want.Refactorizations || got.FactorNNZ != want.FactorNNZ:
		return fmt.Sprintf("%d refactorizations, %d factor nonzeros; want %d, %d",
			got.Refactorizations, got.FactorNNZ, want.Refactorizations, want.FactorNNZ)
	case got.WarmStarted != want.WarmStarted:
		return fmt.Sprintf("warm started %v, want %v", got.WarmStarted, want.WarmStarted)
	case !sameBits(got.Objective, want.Objective):
		return fmt.Sprintf("objective %x, want %x", got.Objective, want.Objective)
	case !slices.EqualFunc(got.X, want.X, sameBits):
		return "X differs"
	case !slices.EqualFunc(got.Dual, want.Dual, sameBits):
		return "Dual differs"
	case !slices.Equal(got.Pivots, want.Pivots):
		return fmt.Sprintf("%d pivots differ from the fresh solve's %d", len(got.Pivots), len(want.Pivots))
	case (got.Basis == nil) != (want.Basis == nil):
		return fmt.Sprintf("basis present %v, want %v", got.Basis != nil, want.Basis != nil)
	case got.Basis != nil && (got.Basis.NumVars != want.Basis.NumVars || got.Basis.NumCons != want.Basis.NumCons ||
		!slices.Equal(got.Basis.RowCol, want.Basis.RowCol) || !slices.Equal(got.Basis.ColStat, want.Basis.ColStat)):
		return "basis differs"
	}
	return ""
}

// TestRecycledWorkspaceMatchesFresh solves the corpus on pooled
// workspaces, each walker into the one Solution it keeps, and requires
// every solve to equal the same solve on a freshly allocated state into a
// new Solution, bit for bit: whatever a workspace or a Solution's storage
// kept from the solve before — a larger or smaller problem, an abandoned
// phase 1, a rejected warm start — must not reach the next one. Several
// walkers run the corpus from different starting points at once, so the
// pool hands workspaces between concurrent borrowers.
func TestRecycledWorkspaceMatchesFresh(t *testing.T) {
	cases := recycleCorpus(t)
	want := make([]*Solution, len(cases))
	seen := map[string]bool{}
	for i, c := range cases {
		sol, err := solveFresh(c.p, c.opts)
		if err != nil {
			t.Fatalf("%s: fresh solve: %v", c.name, err)
		}
		want[i] = sol
		seen[sol.Status.String()] = true
		if c.opts.WarmStart != nil {
			seen[fmt.Sprintf("warm=%v", sol.WarmStarted)] = true
		}
	}
	for _, k := range []string{"optimal", "infeasible", "unbounded", "iteration limit", "warm=true", "warm=false"} {
		if !seen[k] {
			t.Fatalf("corpus has no %q solve", k)
		}
	}

	const walkers = 4
	for w := 0; w < walkers; w++ {
		start := w * len(cases) / walkers
		t.Run("from-"+cases[start].name, func(t *testing.T) {
			t.Parallel()
			var got Solution
			for i := range cases {
				k := (start + i) % len(cases)
				if err := cases[k].p.solve(cases[k].opts, &got); err != nil {
					t.Fatalf("%s: %v", cases[k].name, err)
				}
				if d := solutionDiff(want[k], &got); d != "" {
					t.Fatalf("%s after %s: %s", cases[k].name, cases[(k+len(cases)-1)%len(cases)].name, d)
				}
			}
		})
	}
}

// rebuild makes q a copy of p through Reset and the builder calls, each
// column's entries in p's stored order: AddCol where they ascend, AddVar
// and SetCoef where a SetCoef on p left them out of order.
func rebuild(q, p *Problem) {
	q.Reset(p.Name())
	q.Grow(p.NumVars(), p.NumCons(), p.NumNonzeros())
	for i, c := range p.cons {
		q.AddCon(p.ConName(Con(i)), c.sense, c.rhs)
	}
	var ents []Entry
	for j := range p.vars {
		v := &p.vars[j]
		ents = ents[:0]
		ascending := true
		for k, e := range v.col {
			ascending = ascending && (k == 0 || e.row > v.col[k-1].row)
			ents = append(ents, Entry{Con: Con(e.row), Coef: e.coef})
		}
		if ascending {
			q.AddCol(v.lower, v.upper, v.cost, ents)
			continue
		}
		x := q.AddVar("", v.lower, v.upper, v.cost)
		for _, e := range ents {
			q.SetCoef(e.Con, x, e.Coef)
		}
	}
}

// TestResetProblemMatchesFresh rebuilds every problem of the recycled-
// workspace corpus into one Problem through Reset, larger and smaller in
// turn, and requires each solve, its pivot sequence included, to equal the
// fresh problem's: nothing a Reset keeps — variables, rows, names, the
// arena chunk — may reach the next problem built on it.
func TestResetProblemMatchesFresh(t *testing.T) {
	q := New("recycled")
	for _, c := range recycleCorpus(t) {
		want, err := solveFresh(c.p, c.opts)
		if err != nil {
			t.Fatalf("%s: fresh solve: %v", c.name, err)
		}
		rebuild(q, c.p)
		if q.NumVars() != c.p.NumVars() || q.NumCons() != c.p.NumCons() || q.NumNonzeros() != c.p.NumNonzeros() {
			t.Fatalf("%s: rebuilt %d × %d with %d nonzeros, want %d × %d with %d", c.name,
				q.NumCons(), q.NumVars(), q.NumNonzeros(), c.p.NumCons(), c.p.NumVars(), c.p.NumNonzeros())
		}
		got, err := solveFresh(q, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := solutionDiff(want, got); d != "" {
			t.Fatalf("%s: %s", c.name, d)
		}
	}
}
