//go:build !race

package lp

import (
	"math/rand"
	"testing"
)

// TestSolveAllocs gates what an epoch-scale solve allocates once the
// workspace pool has been primed: the Solution with its X, Dual and Basis,
// and nothing per pivot. The bound is a count, so it holds on any machine,
// and one bound serves both solves although the cold one pivots about
// twenty times as often as the warm one: one allocation a pivot, in the
// dual solve's memo or anywhere else, would exceed it many times over.
func TestSolveAllocs(t *testing.T) {
	const budget = 16
	base := epochScaleLP(nil)
	psol, err := epochScaleLP(rand.New(rand.NewSource(78))).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if psol.Basis == nil {
		t.Fatalf("previous epoch: status %v and no basis", psol.Status)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"cold", Options{}},
		{"warm", Options{WarmStart: psol.Basis}},
	} {
		var sol *Solution
		allocs := testing.AllocsPerRun(5, func() {
			if sol, err = base.Solve(tc.opts); err != nil {
				t.Fatal(err)
			}
		})
		if sol.Status != Optimal || sol.WarmStarted != (tc.opts.WarmStart != nil) {
			t.Fatalf("%s: status %v, warm started %v", tc.name, sol.Status, sol.WarmStarted)
		}
		if allocs > budget {
			t.Errorf("%s: a solve of %d pivots allocates %.0f times, budget %d", tc.name, sol.Iters, allocs, budget)
		}
		t.Logf("%s: %d pivots, %.0f allocations", tc.name, sol.Iters, allocs)
	}
}
