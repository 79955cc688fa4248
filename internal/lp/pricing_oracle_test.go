package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pricingOracle is the pricer the incremental cache replaced, kept as
// naive as possible and hung on Options.pricingCheck. At every pricing
// step it solves for the duals of the current basis itself — its own c_B
// through the factorization's full dual solve, never the solver's
// reduced costs — and fails the test when
//
//   - a cached reduced cost d_j is further than driftTol·(1 + |c_j| +
//     max_i |y_i|·‖a_j‖₁) from its own c_j − yᵀa_j, or a basic column's
//     is not 0;
//   - a cached direction or score differs by a bit from what the cached
//     d_j gives, or the entering column is not the argmax of the cached
//     scores (the first eligible column under Bland's rule);
//   - a phase reports Optimal while a column is eligible under its d.
//
// From its own copy of the weights it also recomputes what the
// Forrest–Goldfarb update must leave behind.
type pricingOracle struct {
	t     testing.TB
	label string
	devex []float64 // the weights as of the last pricing step
	cb, y []float64 // its own basic costs and duals
	maxY  float64   // max_i |y_i|

	steps, blandSteps, reweights, resets, optima int
	drift                                        float64 // the largest scaled drift seen
}

// driftTol bounds how far, relative to the column's scale, an updated
// reduced cost may drift from a fresh one between dual solves.
const driftTol = 1e-9

// withOracle attaches a fresh oracle to opts.
func withOracle(t testing.TB, label string, opts Options) (Options, *pricingOracle) {
	o := &pricingOracle{t: t, label: label}
	opts.pricingCheck = o
	return opts, o
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// reducedCost returns column j's reduced cost under the oracle's duals
// and the column's scale 1 + |c_j| + Y·‖a_j‖₁ with Y = max_i |y_i|: the
// roundoff in y, and so in d, scales with the largest dual (the online
// model's fake node prices every row it meets), not with the column's own.
func (o *pricingOracle) reducedCost(s *simplexState, cost []float64, j int) (d, scale float64) {
	d, norm := cost[j], 0.0
	for _, e := range s.cols[j] {
		d -= o.y[e.row] * e.coef
		norm += math.Abs(e.coef)
	}
	return d, 1 + math.Abs(cost[j]) + o.maxY*norm
}

// solveDuals sets o.y to the duals of the current basis under cost.
func (o *pricingOracle) solveDuals(s *simplexState, cost []float64) {
	o.cb, o.y = resize(o.cb, s.m), resize(o.y, s.m)
	for i, j := range s.basis {
		o.cb[i] = cost[j]
	}
	s.factor.btran(o.cb, o.y)
	o.maxY = 0
	for _, y := range o.y {
		o.maxY = math.Max(o.maxY, math.Abs(y))
	}
}

// eligible is the direction column j may enter in at reduced cost d, 0
// for none.
func eligible(s *simplexState, cost []float64, j int, d float64) float64 {
	st := s.status[j]
	if st == basic || (s.lower[j] == s.upper[j] && st != atFree) {
		return 0
	}
	dtol := s.opts.tol * (1 + math.Abs(cost[j]))
	switch {
	case st != atUpper && d < -dtol:
		return 1
	case st != atLower && d > dtol:
		return -1
	}
	return 0
}

func (o *pricingOracle) priced(s *simplexState, cost []float64, useBland bool, entering int, enterDir float64) {
	o.steps++
	if useBland {
		o.blandSteps++
	}
	o.solveDuals(s, cost)
	wantJ, wantDir, best := -1, 0.0, 0.0
	for j := range s.cols {
		if s.status[j] == basic {
			if s.d[j] != 0 {
				o.t.Fatalf("%s: step %d (iter %d): basic column %d has reduced cost %g", o.label, o.steps, s.iter, j, s.d[j])
			}
		} else {
			d, scale := o.reducedCost(s, cost, j)
			drift := math.Abs(s.d[j]-d) / scale
			o.drift = math.Max(o.drift, drift)
			if drift > driftTol {
				o.t.Fatalf("%s: step %d (iter %d): column %d cached d=%g, fresh duals give %g (drift %.3g of scale %g)",
					o.label, o.steps, s.iter, j, s.d[j], d, drift, scale)
			}
		}
		dir, score := eligible(s, cost, j, s.d[j]), 0.0
		if dir != 0 {
			score = s.d[j] * s.d[j] / s.devex[j]
		}
		if dir != s.dir[j] || !sameBits(score, s.score[j]) {
			o.t.Fatalf("%s: step %d (iter %d): column %d cached dir=%g score=%x, from its d dir=%g score=%x",
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

func (o *pricingOracle) optimal(s *simplexState, cost []float64) {
	o.optima++
	o.solveDuals(s, cost)
	for j := range s.cols {
		if d, _ := o.reducedCost(s, cost, j); eligible(s, cost, j, d) != 0 {
			o.t.Fatalf("%s: iter %d: Optimal, but column %d (status %d) has reduced cost %g under fresh duals",
				o.label, s.iter, j, s.status[j], d)
		}
	}
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
	steps, blandSteps, reweights, optima, drift := 0, 0, 0, 0, 0.0
	tally := func(o *pricingOracle) {
		steps += o.steps
		blandSteps += o.blandSteps
		reweights += o.reweights
		optima += o.optima
		drift = math.Max(drift, o.drift)
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
		if csol.Phase1 == 0 || csol.Refactorizations < 2 {
			t.Errorf("lips/cold/%s: %d phase-1 iterations, %d refactorizations: want both phases, each priced afresh after a refactorization",
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

	// The scheduler's LPs the simplex once cycled on.
	for _, name := range recordedLPs {
		sol, o := oracleSolve(t, "recorded/"+name, readRecordedLP(t, name), Options{})
		if sol.Status != Optimal {
			t.Errorf("recorded/%s: status %v", name, sol.Status)
		}
		tally(o)
	}

	// Epoch scale on the default factorization: ~5000 columns, long enough
	// that the eta file forces refactorizations between pricing steps.
	esol, o := oracleSolve(t, "epoch/cold", epochScaleLP(nil), Options{})
	tally(o)
	if esol.Refactorizations < 4 {
		t.Errorf("epoch/cold: %d refactorizations, want mid-solve ones", esol.Refactorizations)
	}
	t.Logf("oracle saw %d pricing steps (%d under Bland), %d Devex updates and %d optima; largest drift %.3g",
		steps, blandSteps, reweights, optima, drift)
	if steps < 5000 || blandSteps == 0 || reweights < 3000 || optima < 400 {
		t.Errorf("corpus too thin")
	}
}
