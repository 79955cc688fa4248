package lp

import (
	"math/rand"
	"testing"

	"lips/internal/obs"
)

// solveColGenFull runs the reveal-oracle colgen pipeline on full and
// returns the final solution, the stats, and the expanded X.
func solveColGenFull(t *testing.T, full *Problem, opts Options) (*Solution, ColGenStats, []float64) {
	t.Helper()
	p, o := NewRestricted(full)
	sol, st, err := SolveColGen(p, o, opts)
	if err != nil {
		t.Fatalf("%s: colgen: %v", full.Name(), err)
	}
	var x []float64
	if sol.Status == Optimal {
		x = o.Expand(sol)
	}
	return sol, st, x
}

// TestColGenMatchesFullHardCorpus pins the reveal-oracle colgen path to
// the known optima of the hard corpus.
func TestColGenMatchesFullHardCorpus(t *testing.T) {
	for _, tc := range hardCorpus() {
		full := tc.p()
		sol, st, x := solveColGenFull(t, full, Options{})
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v", tc.name, sol.Status)
		}
		if d := relDiff(sol.Objective, tc.want); d > 1e-6 {
			t.Errorf("%s: objective %g, want %g (rel %g)", tc.name, sol.Objective, tc.want, d)
		}
		if err := full.CheckFeasible(x, 1e-6); err != nil {
			t.Errorf("%s: expanded point infeasible: %v", tc.name, err)
		}
		if st.Rounds < 1 {
			t.Errorf("%s: zero pricing rounds", tc.name)
		}
	}
}

// TestColGenMatchesFullLiPSShaped runs the colgen differential over the
// scheduling-shaped corpus: the restricted solve must reproduce the direct
// solve's objective while revealing only a subset of the columns.
func TestColGenMatchesFullLiPSShaped(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sawPartial := false
	for trial := 0; trial < 20; trial++ {
		jobs := 3 + rng.Intn(10)
		machines := 3 + rng.Intn(8)
		stores := 2 + rng.Intn(6)
		full := lipsShapedLP(jobs, machines, stores, rand.New(rand.NewSource(int64(trial))), rng)
		direct, err := full.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: direct: %v", trial, err)
		}
		sol, st, x := solveColGenFull(t, full, Options{})
		if sol.Status != direct.Status {
			t.Fatalf("trial %d: colgen status %v, direct %v", trial, sol.Status, direct.Status)
		}
		if direct.Status != Optimal {
			continue
		}
		if d := relDiff(sol.Objective, direct.Objective); d > 1e-6 {
			t.Errorf("trial %d: colgen objective %g, direct %g (rel %g)", trial, sol.Objective, direct.Objective, d)
		}
		if err := full.CheckFeasible(x, 1e-6); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		if st.Columns+seededCols(full) < full.NumVars() {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Error("colgen revealed every column on every trial; the restriction never paid off")
	}
}

// seededCols counts the columns NewRestricted must seed for full (those
// that cannot rest at zero).
func seededCols(full *Problem) int {
	n := 0
	for j := 0; j < full.NumVars(); j++ {
		lo, hi := full.Bounds(Var(j))
		if lo > 0 || hi < 0 {
			n++
		}
	}
	return n
}

// TestColGenMatchesFullRandom fuzzes the differential over the random
// corpus, including infeasible and unbounded instances: the colgen
// pipeline must land on the same status and objective as a direct solve.
func TestColGenMatchesFullRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full := randomProblem(rng)
		direct, err := full.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: direct: %v", seed, err)
		}
		sol, _, x := solveColGenFull(t, full, Options{})
		if sol.Status != direct.Status {
			t.Fatalf("seed %d: colgen status %v, direct %v", seed, sol.Status, direct.Status)
		}
		if direct.Status != Optimal {
			continue
		}
		if d := relDiff(sol.Objective, direct.Objective); d > 1e-6 {
			t.Errorf("seed %d: colgen objective %g, direct %g (rel %g)", seed, sol.Objective, direct.Objective, d)
		}
		if err := full.CheckFeasible(x, 1e-6); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestColGenJunkedCorpus exercises the numerically nasty corpus (junk
// rows, wild scales) through the colgen pipeline.
func TestColGenJunkedCorpus(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		full := junkedLiPSLP(seed)
		direct, err := full.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: direct: %v", seed, err)
		}
		sol, _, _ := solveColGenFull(t, full, Options{})
		if sol.Status != direct.Status {
			t.Fatalf("seed %d: colgen status %v, direct %v", seed, sol.Status, direct.Status)
		}
		if direct.Status != Optimal {
			continue
		}
		if d := relDiff(sol.Objective, direct.Objective); d > 1e-6 {
			t.Errorf("seed %d: colgen objective %g, direct %g (rel %g)", seed, sol.Objective, direct.Objective, d)
		}
	}
}

// TestColGenWarmRounds asserts that rounds following an optimal round
// reuse its basis via ExtendBasis. Klee–Minty's empty restriction is
// feasible on the slack basis, so round 1 is Optimal, round 2 must
// warm-start, and the run must converge without a cold restart.
func TestColGenWarmRounds(t *testing.T) {
	full := kleeMintyLP(8)
	p, o := NewRestricted(full)
	sol, st, err := SolveColGen(p, o, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if st.Rounds < 2 {
		t.Fatalf("expected ≥ 2 pricing rounds, got %d", st.Rounds)
	}
	if st.WarmRounds < 1 {
		t.Errorf("no round warm-started across %d rounds", st.Rounds)
	}
	if !sol.WarmStarted {
		t.Error("final round did not warm-start from the previous round's basis")
	}
}

// TestColGenPublishesMetrics checks the lips_lp_ colgen counters.
func TestColGenPublishesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(4))
	full := lipsShapedLP(8, 6, 4, rand.New(rand.NewSource(2)), rng)
	p, o := NewRestricted(full)
	sol, st, err := SolveColGen(p, o, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if v, ok := reg.Value(obs.MLPColGenRounds); !ok || v != float64(st.Rounds) {
		t.Errorf("colgen rounds metric = %g (ok=%v), want %d", v, ok, st.Rounds)
	}
	if v, ok := reg.Value(obs.MLPColGenColumns); !ok || v != float64(st.Columns) {
		t.Errorf("colgen columns metric = %g (ok=%v), want %d", v, ok, st.Columns)
	}
}
