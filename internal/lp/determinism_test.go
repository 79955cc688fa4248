package lp

import (
	"math/rand"
	"testing"
)

// solveRecorded solves p with pivot recording on, failing the test on any
// non-optimal outcome.
func solveRecorded(t *testing.T, p *Problem, opts Options) *Solution {
	t.Helper()
	opts.recordPivots = true
	sol, err := p.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	return sol
}

// assertSameRun verifies two solves took the exact same path: identical
// pivot sequences, iteration counts, and bitwise-identical solutions.
func assertSameRun(t *testing.T, ref, got *Solution, label string) {
	t.Helper()
	if ref.Iters != got.Iters {
		t.Fatalf("%s: %d iterations vs %d", label, got.Iters, ref.Iters)
	}
	if len(ref.Pivots) != len(got.Pivots) {
		t.Fatalf("%s: %d pivots vs %d", label, len(got.Pivots), len(ref.Pivots))
	}
	for i := range ref.Pivots {
		if ref.Pivots[i] != got.Pivots[i] {
			t.Fatalf("%s: pivot %d diverged: %+v vs %+v", label, i, got.Pivots[i], ref.Pivots[i])
		}
	}
	for j := range ref.X {
		if ref.X[j] != got.X[j] {
			t.Fatalf("%s: X[%d] = %x vs %x (not bitwise identical)", label, j, got.X[j], ref.X[j])
		}
	}
	if ref.Objective != got.Objective {
		t.Fatalf("%s: objective %x vs %x", label, got.Objective, ref.Objective)
	}
}

// TestSameSeedRepeat rebuilds the same LP from the same seed and solves it
// again — cold, under Bland's rule, and warm-started the way the LiPS
// scheduler runs every epoch after the first — and requires the identical
// pivot sequence and a bitwise-identical solution: nothing in a solve may
// depend on anything but its inputs.
func TestSameSeedRepeat(t *testing.T) {
	build := func() *Problem { return lipsShapedLP(16, 4, 4, rand.New(rand.NewSource(31)), nil) }
	perturbed := lipsShapedLP(16, 4, 4, rand.New(rand.NewSource(31)), rand.New(rand.NewSource(32)))
	psol := solveRecorded(t, perturbed, Options{})
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"cold", Options{}},
		{"bland", Options{Bland: true}},
		{"warm", Options{WarmStart: psol.Basis}},
	} {
		ref := solveRecorded(t, build(), tc.opts)
		if len(ref.Pivots) == 0 {
			t.Fatalf("%s: no pivots recorded", tc.name)
		}
		got := solveRecorded(t, build(), tc.opts)
		if ref.WarmStarted != got.WarmStarted {
			t.Fatalf("%s: warm acceptance diverged: %v vs %v", tc.name, got.WarmStarted, ref.WarmStarted)
		}
		assertSameRun(t, ref, got, tc.name)
	}
}
