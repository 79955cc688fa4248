package lp

import (
	"compress/gzip"
	"os"
	"testing"
)

// recordedLPs are LPs the scheduler produced that once made the simplex
// cycle, written through Write (gzipped):
//
//   - swim-seed42-epoch29: epoch 29 of `lips-sim -cluster paper100
//     -workload swim -jobs 400 -scheduler lips -seed 42`, solved cold
//     (the offered basis has other dimensions);
//   - overhead-40jobs: the overhead experiment's cold 40-job online model
//     at seed 42 (`lips-bench -full -experiment overhead`).
var recordedLPs = []string{"swim-seed42-epoch29", "overhead-40jobs"}

// readRecordedLP parses testdata/<name>.lp.gz.
func readRecordedLP(t testing.TB, name string) *Problem {
	t.Helper()
	f, err := os.Open("testdata/" + name + ".lp.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(zr)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// TestRecordedLPsTerminate solves every recorded LP within 20·(rows+cols)
// pivots, the budget past which an epoch counts as stalled, to a
// solution that is feasible.
func TestRecordedLPsTerminate(t *testing.T) {
	for _, name := range recordedLPs {
		t.Run(name, func(t *testing.T) {
			p := readRecordedLP(t, name)
			budget := 20 * (p.NumCons() + p.NumVars())
			sol, err := p.Solve(Options{MaxIters: budget})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d rows × %d cols: %v after %d pivots (budget %d), objective %.10g",
				p.NumCons(), p.NumVars(), sol.Status, sol.Iters, budget, sol.Objective)
			if sol.Status != Optimal {
				t.Fatalf("%v after %d pivots, want an optimum within %d", sol.Status, sol.Iters, budget)
			}
			if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
				t.Error(err)
			}
		})
	}
}
