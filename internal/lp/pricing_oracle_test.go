package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pricingOracle is the pricer the incremental cache replaced: a full scan
// of every column at every step, kept as naive as possible. Hung on
// Options.pricingCheck it recomputes, from nothing but the duals, statuses
// and bounds, what every column's direction and Devex score must be and
// which column must enter, and — from its own copy of the weights — what
// the Forrest–Goldfarb update must leave behind, and fails the test on the
// first bit that differs.
type pricingOracle struct {
	t     testing.TB
	label string
	devex []float64 // the weights as of the last pricing step

	steps, blandSteps, reweights, resets int
}

// withOracle attaches a fresh oracle to opts.
func withOracle(t testing.TB, label string, opts Options) (Options, *pricingOracle) {
	o := &pricingOracle{t: t, label: label}
	opts.pricingCheck = o
	return opts, o
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (o *pricingOracle) priced(s *simplexState, cost []float64, useBland bool, entering int, enterDir float64) {
	o.steps++
	if useBland {
		o.blandSteps++
	}
	wantJ, wantDir, best := -1, 0.0, 0.0
	for j := range s.cols {
		dir, score := 0.0, 0.0
		st := s.status[j]
		if st != basic && (s.lower[j] != s.upper[j] || st == atFree) {
			d := cost[j]
			for _, e := range s.cols[j] {
				d -= s.y[e.row] * e.coef
			}
			dtol := s.opts.tol * (1 + math.Abs(cost[j]))
			switch {
			case st != atUpper && d < -dtol:
				dir = 1
			case st != atLower && d > dtol:
				dir = -1
			}
			if dir != 0 {
				score = d * d / s.devex[j]
			}
		}
		if dir != s.dir[j] || !sameBits(score, s.score[j]) {
			o.t.Fatalf("%s: step %d (iter %d): column %d cached dir=%g score=%x, full scan dir=%g score=%x",
				o.label, o.steps, s.iter, j, s.dir[j], s.score[j], dir, score)
		}
		if dir == 0 {
			continue
		}
		if useBland {
			if wantJ < 0 {
				wantJ, wantDir = j, dir
			}
		} else if score > best {
			wantJ, wantDir, best = j, dir, score
		}
	}
	if entering != wantJ || enterDir != wantDir {
		o.t.Fatalf("%s: step %d (iter %d): entering %d dir %g, full scan picks %d dir %g",
			o.label, o.steps, s.iter, entering, enterDir, wantJ, wantDir)
	}
	o.devex = append(o.devex[:0], s.devex...)
}

func (o *pricingOracle) reweighted(s *simplexState, prowOld []float64, pivot float64, entering, outVar int) {
	o.reweights++
	w := o.devex
	wq, pivotSq := w[entering], pivot*pivot
	for j := range s.cols {
		if s.status[j] == basic || j == entering {
			continue
		}
		alpha := 0.0
		for _, e := range s.cols[j] {
			alpha += prowOld[e.row] * e.coef
		}
		if cand := (alpha * alpha / pivotSq) * wq; alpha != 0 && cand > w[j] {
			w[j] = cand
		}
	}
	w[outVar] = math.Max(wq/pivotSq, 1)
	if w[outVar] > 1e12 {
		o.resets++
		for j := range w {
			w[j] = 1
		}
	}
	for j := range w {
		if !sameBits(w[j], s.devex[j]) {
			o.t.Fatalf("%s: iter %d: Devex weight of column %d is %x, full update gives %x",
				o.label, s.iter, j, s.devex[j], w[j])
		}
	}
}

// oracleSolve solves p under the oracle and returns the solution with the
// oracle's counters.
func oracleSolve(t *testing.T, label string, p *Problem, opts Options) (*Solution, *pricingOracle) {
	t.Helper()
	opts, o := withOracle(t, label, opts)
	sol, err := p.Solve(opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return sol, o
}

// devexResetLP is a scheduling-shaped LP with one badly scaled column: its
// only row entry is 1e-7, so the pivot that brings it in pushes the
// leaving weight past 1e12 and resets the reference framework mid-solve.
func devexResetLP() *Problem {
	p := schedulingShapedLP(6, 3, 3, rand.New(rand.NewSource(9)))
	x := p.AddVar("tiny", 0, Inf, -1e-3)
	c := p.AddCon("tiny-row", LE, 1)
	p.SetCoef(c, x, 1e-7)
	return p
}

// TestPricingOracle runs the reference pricer beside the incremental one
// at every pricing step and every Devex update of every solver path.
func TestPricingOracle(t *testing.T) {
	steps, blandSteps, reweights := 0, 0, 0
	tally := func(o *pricingOracle) {
		steps += o.steps
		blandSteps += o.blandSteps
		reweights += o.reweights
	}

	for _, f := range factorModes {
		// Hard corpus: cold and under Bland's rule.
		for _, hc := range hardCorpus() {
			for _, v := range []struct {
				name string
				opts Options
			}{
				{"cold", Options{}},
				{"bland", Options{Bland: true}},
			} {
				v.opts.factor = f.mk
				label := fmt.Sprintf("hard/%s/%s/%s", hc.name, v.name, f.name)
				sol, o := oracleSolve(t, label, hc.p(), v.opts)
				if sol.Status != Optimal || relDiff(sol.Objective, hc.want) > 1e-6 {
					t.Errorf("%s: status %v objective %g, want %g", label, sol.Status, sol.Objective, hc.want)
				}
				tally(o)
			}
		}

		// Property corpus: every status, free and boxed columns.
		for seed := int64(0); seed < 200; seed++ {
			p := randomProblem(rand.New(rand.NewSource(seed)))
			_, o := oracleSolve(t, fmt.Sprintf("random/%d/%s", seed, f.name), p, Options{factor: f.mk})
			tally(o)
		}

		// Differential corpus: junked LPs, then two epochs of a
		// LiPS-shaped LP down every warm-start outcome.
		for seed := int64(1); seed <= 6; seed++ {
			_, o := oracleSolve(t, fmt.Sprintf("junked/%d/%s", seed, f.name), junkedLiPSLP(seed), Options{factor: f.mk})
			tally(o)
		}
		base := lipsShapedLP(12, 5, 4, rand.New(rand.NewSource(31)), nil)
		prev := lipsShapedLP(12, 5, 4, rand.New(rand.NewSource(31)), rand.New(rand.NewSource(32)))
		psol, o := oracleSolve(t, "lips/prev/"+f.name, prev, Options{factor: f.mk})
		tally(o)
		csol, o := oracleSolve(t, "lips/cold/"+f.name, base, Options{factor: f.mk})
		tally(o)
		if csol.Phase1 == 0 || csol.Refactorizations < 3 {
			t.Errorf("lips/cold/%s: %d phase-1 iterations, %d refactorizations: want both phases and a mid-solve refactorize",
				f.name, csol.Phase1, csol.Refactorizations)
		}
		wsol, o := oracleSolve(t, "lips/warm/"+f.name, base, Options{factor: f.mk, WarmStart: psol.Basis})
		tally(o)
		if !wsol.WarmStarted || o.steps == 0 {
			t.Errorf("lips/warm/%s: WarmStarted=%v after %d pricing steps, want an accepted warm start that prices", f.name, wsol.WarmStarted, o.steps)
		}
		drifted := lipsShapedLP(12, 5, 4, rand.New(rand.NewSource(31)), nil)
		tightenLE(drifted, 0.9, rand.New(rand.NewSource(33)))
		rsol, o := oracleSolve(t, "lips/warm-rejected/"+f.name, drifted, Options{factor: f.mk, WarmStart: csol.Basis})
		tally(o)
		if rsol.WarmStarted || rsol.Status != Optimal {
			t.Errorf("lips/warm-rejected/%s: WarmStarted=%v status %v, want a rejected warm start solved cold", f.name, rsol.WarmStarted, rsol.Status)
		}

		// Column generation: every round's restricted master is priced
		// under the oracle (SolveColGen hands opts to each round).
		full := lipsShapedLP(8, 5, 4, rand.New(rand.NewSource(41)), nil)
		rp, reveal := NewRestricted(full)
		cgOpts, o := withOracle(t, "colgen/"+f.name, Options{factor: f.mk})
		cgsol, st, err := SolveColGen(rp, reveal, cgOpts)
		if err != nil || cgsol.Status != Optimal {
			t.Fatalf("colgen/%s: %v / %v", f.name, err, cgsol.Status)
		}
		if st.Rounds < 2 || st.WarmRounds == 0 {
			t.Errorf("colgen/%s: %d rounds, %d warm: want several warm rounds", f.name, st.Rounds, st.WarmRounds)
		}
		tally(o)

		// A Devex reset mid-solve.
		_, o = oracleSolve(t, "devex-reset/"+f.name, devexResetLP(), Options{factor: f.mk})
		tally(o)
		if o.resets == 0 {
			t.Errorf("devex-reset/%s: reference framework was never reset", f.name)
		}
	}

	// Epoch scale on the default factorization: ~5000 columns, long enough
	// that the eta file forces refactorizations between pricing steps.
	esol, o := oracleSolve(t, "epoch/cold", epochScaleLP(nil), Options{})
	tally(o)
	if esol.Refactorizations < 4 {
		t.Errorf("epoch/cold: %d refactorizations, want mid-solve ones", esol.Refactorizations)
	}
	if steps < 5000 || blandSteps == 0 || reweights < 3000 {
		t.Errorf("oracle saw %d pricing steps (%d under Bland) and %d Devex updates: corpus too thin", steps, blandSteps, reweights)
	}
}
