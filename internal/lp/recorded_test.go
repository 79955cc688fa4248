package lp

import (
	"compress/gzip"
	"encoding/json"
	"os"
	"testing"
)

// recordedLPs are LPs the scheduler produced that once made the simplex
// cycle, written through Write (gzipped); a warm one also has the basis
// it was offered, the Basis as JSON (gzipped), beside it:
//
//   - swim-seed42-epoch29: epoch 29 of `lips-sim -cluster paper100
//     -workload swim -jobs 400 -scheduler lips -seed 42`, solved cold
//     (the offered basis has other dimensions);
//   - overhead-40jobs: the overhead experiment's cold 40-job online model
//     at seed 42 (`lips-bench -full -experiment overhead`);
//   - fig8-e1000-epoch1: a restricted-master round of epoch 1 of Fig. 8's
//     1000 s run (`lips-bench -full -experiment fig8`), warm from the
//     previous round's basis (ExtendBasis): two zero-cost flow columns
//     traded places on every pivot;
//   - swim-seed9-epoch120: the same on a master round of epoch 120 of
//     the paper day at seed 9.
var recordedLPs = []struct {
	name string
	warm bool
}{
	{"swim-seed42-epoch29", false},
	{"overhead-40jobs", false},
	{"fig8-e1000-epoch1", true},
	{"swim-seed9-epoch120", true},
}

// gunzip opens testdata/name, gzipped, and hands it to read.
func gunzip(t testing.TB, name string, read func(*gzip.Reader) error) {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := read(zr); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// readRecordedLP parses testdata/<name>.lp.gz and, for a warm one, reads
// the basis it was offered from testdata/<name>.basis.json.gz.
func readRecordedLP(t testing.TB, name string, warm bool) (p *Problem, ws *Basis) {
	t.Helper()
	gunzip(t, name+".lp.gz", func(r *gzip.Reader) (err error) {
		p, err = Parse(r)
		return err
	})
	if warm {
		gunzip(t, name+".basis.json.gz", func(r *gzip.Reader) error {
			ws = new(Basis)
			return json.NewDecoder(r).Decode(ws)
		})
	}
	return p, ws
}

// TestRecordedLPsTerminate solves every recorded LP, warm ones from their
// recorded basis, within 20·(rows+cols) pivots, the budget past which an
// epoch counts as stalled, to a solution that is feasible — and a warm one
// to the cold solve's objective.
func TestRecordedLPsTerminate(t *testing.T) {
	for _, rec := range recordedLPs {
		t.Run(rec.name, func(t *testing.T) {
			p, ws := readRecordedLP(t, rec.name, rec.warm)
			budget := 20 * (p.NumCons() + p.NumVars())
			sol, err := p.Solve(Options{MaxIters: budget, WarmStart: ws})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d rows × %d cols: %v after %d pivots (budget %d, warm %v), objective %.10g",
				p.NumCons(), p.NumVars(), sol.Status, sol.Iters, budget, sol.WarmStarted, sol.Objective)
			if sol.Status != Optimal {
				t.Fatalf("%v after %d pivots, want an optimum within %d", sol.Status, sol.Iters, budget)
			}
			if sol.WarmStarted != rec.warm {
				t.Errorf("warm start accepted %v, want %v", sol.WarmStarted, rec.warm)
			}
			if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
				t.Error(err)
			}
			if ws == nil {
				return
			}
			cold, err := p.Solve(Options{MaxIters: budget})
			if err != nil || cold.Status != Optimal {
				t.Fatalf("cold: %v / %v", cold, err)
			}
			if relDiff(sol.Objective, cold.Objective) > 1e-9 {
				t.Errorf("warm objective %.12g, cold %.12g", sol.Objective, cold.Objective)
			}
		})
	}
}

// TestRandomDayStallEnds solves testdata/random12k-epoch2: the first
// restricted-master round of epoch 2 of `lips-sim -cluster paper100
// -workload random -tasks 12000 -scheduler lips` (seed 1) as the master
// was built while it still started from the slack basis, with the parked
// basis core offers it now (every job on the fake node, every block where
// it is) beside it. From that basis the solve runs no phase 1 and reaches
// the optimum within the 5·(rows+cols) pivots an epoch may take, to the
// objective of a cold solve under Bland's rule. A cold solve under the
// default pricing stalls on this LP (phase 1 ends after 902 pivots; 20 000
// pivots and ~40 s later it has not reached the optimum), so it is not
// run here.
func TestRandomDayStallEnds(t *testing.T) {
	p, ws := readRecordedLP(t, "random12k-epoch2", true)
	budget := 5 * (p.NumCons() + p.NumVars())
	sol, err := p.Solve(Options{MaxIters: budget, WarmStart: ws})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rows × %d cols: %v after %d pivots (budget %d, warm %v), objective %.10g",
		p.NumCons(), p.NumVars(), sol.Status, sol.Iters, budget, sol.WarmStarted, sol.Objective)
	if sol.Status != Optimal || !sol.WarmStarted || sol.Phase1 != 0 {
		t.Fatalf("%v after %d pivots, warm %v, %d in phase 1: want an optimum from the parked basis", sol.Status, sol.Iters, sol.WarmStarted, sol.Phase1)
	}
	if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
		t.Error(err)
	}
	bland, err := p.Solve(Options{MaxIters: budget, Bland: true})
	if err != nil || bland.Status != Optimal {
		t.Fatalf("cold under Bland's rule: %v / %v", bland, err)
	}
	if relDiff(sol.Objective, bland.Objective) > 1e-9 {
		t.Errorf("objective %.12g from the parked basis, %.12g cold under Bland's rule", sol.Objective, bland.Objective)
	}
}

// TestRoundoffOnly holds the stop rule the recorded warm rounds need to
// its bound: boxed columns whose |d_j|·(u_j − l_j) sum to at most
// 1e-12·(1 + |z|) are roundoff; more than that, or any admitted column
// without a finite span, is a pivot still to take.
func TestRoundoffOnly(t *testing.T) {
	p := New("roundoff")
	fixed := p.AddVar("fixed", 1, 1, 1e6) // nonbasic at 1: z = 1e6
	box := p.AddVar("box", 0, 2, 0)
	ray := p.AddVar("ray", 0, Inf, 0)
	row := p.AddCon("row", LE, 10)
	for _, v := range []Var{fixed, box, ray} {
		p.SetCoef(row, v, 1)
	}
	s := newSimplexState(p, Options{})
	s.coldStart()
	for _, tc := range []struct {
		name string
		j    Var
		d    float64
		want bool
	}{
		{"nothing admitted", -1, 0, true},
		{"within roundoff", box, -0.4e-6, true}, // 0.8e-6 ≤ 1e-12·(1 + 1e6)
		{"beyond roundoff", box, -0.6e-6, false},
		{"unboxed", ray, -1e-300, false},
	} {
		clear(s.d)
		clear(s.dir)
		if tc.j >= 0 {
			s.d[tc.j], s.dir[tc.j] = tc.d, 1
		}
		if got := s.roundoffOnly(s.cost); got != tc.want {
			t.Errorf("%s: roundoffOnly = %v, want %v", tc.name, got, tc.want)
		}
	}
}
