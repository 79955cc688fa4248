package lp

import (
	"math/rand"
	"slices"
	"testing"
)

// sweepFtranCol is ftranCol's reference, kept naive: the column scattered
// into a dense vector, a forward sweep over every L step, a backward sweep
// over every U step, then every eta, oldest first.
func sweepFtranCol(f *luFactor, col []nz) []float64 {
	m := f.m
	v, z, out := make([]float64, m), make([]float64, m), make([]float64, m)
	for _, e := range col {
		v[e.row] += e.coef
	}
	for k := 0; k < m; k++ {
		t := v[f.rowOf[k]]
		if t != 0 {
			for idx, r := range f.lIdx[k] {
				v[r] -= f.lVal[k][idx] * t
			}
		}
		z[k] = t
	}
	for k := m - 1; k >= 0; k-- {
		acc := z[k]
		for idx, j := range f.uIdx[k] {
			acc -= f.uVal[k][idx] * z[j]
		}
		z[k] = acc / f.uDiag[k]
	}
	for k := 0; k < m; k++ {
		out[f.slotOf[k]] = z[k]
	}
	for _, et := range f.etas {
		t := out[et.r] / et.wr
		if t != 0 {
			for idx, i := range f.etaIdx[et.lo:et.hi] {
				out[i] -= f.etaVal[et.lo+idx] * t
			}
		}
		out[et.r] = t
	}
	return out
}

// sweepPivotRow is pivotRow's reference: the dual sweep of e_i.
func sweepPivotRow(f *luFactor, i int) []float64 {
	c := make([]float64, f.m)
	c[i] = 1
	return sweepDuals(f, c)
}

// sweepDuals is the dual solve kept naive: the slot-space c through every
// eta, newest first, then a forward sweep over every Uᵀ step and a
// backward sweep over every Lᵀ step.
func sweepDuals(f *luFactor, c []float64) []float64 {
	m := f.m
	buf, t, out := slices.Clone(c), make([]float64, m), make([]float64, m)
	for e := len(f.etas) - 1; e >= 0; e-- {
		et := f.etas[e]
		sum := 0.0
		for idx, j := range f.etaIdx[et.lo:et.hi] {
			sum += buf[j] * f.etaVal[et.lo+idx]
		}
		buf[et.r] = (buf[et.r] - sum) / et.wr
	}
	for k := 0; k < m; k++ {
		t[k] = buf[f.slotOf[k]]
	}
	for k := 0; k < m; k++ {
		tk := t[k] / f.uDiag[k]
		t[k] = tk
		if tk != 0 {
			for idx, j := range f.uIdx[k] {
				t[j] -= f.uVal[k][idx] * tk
			}
		}
	}
	for k := m - 1; k >= 0; k-- {
		a := t[k]
		for idx, r := range f.lIdx[k] {
			a -= f.lVal[k][idx] * out[r]
		}
		out[f.rowOf[k]] = a
	}
	return out
}

// sweepCheck is the sparse LU with every entering FTRAN and every pivot
// row held against the sweeps above: each entry equal (a zero may differ
// in sign), and the nonzero list equal to a scan of the result.
type sweepCheck struct {
	*luFactor
	t testing.TB

	ftrans, btrans       int
	fresh, deep, p1, hot int // checks right after a refactorize, past 100 etas, in phase 1, on a warm start
}

func (c *sweepCheck) ftranCol(col []nz) ([]float64, []int32) {
	w, nzs := c.luFactor.ftranCol(col)
	c.ftrans++
	c.check("FTRAN", w, nzs, sweepFtranCol(c.luFactor, col))
	return w, nzs
}

func (c *sweepCheck) pivotRow(i int) ([]float64, []int32) {
	row, nzs := c.luFactor.pivotRow(i)
	c.btrans++
	c.check("pivot-row BTRAN", row, nzs, sweepPivotRow(c.luFactor, i))
	return row, nzs
}

func (c *sweepCheck) check(what string, got []float64, nzs []int32, want []float64) {
	c.t.Helper()
	f, s := c.luFactor, c.luFactor.s
	for i := range want {
		if got[i] != want[i] {
			c.t.Fatalf("iter %d, %d etas: %s entry %d = %g, sweep %g", s.iter, len(f.etas), what, i, got[i], want[i])
		}
	}
	if scan := nonzeroScan(got, nil); !slices.Equal(nzs, scan) {
		c.t.Fatalf("iter %d, %d etas: %s nonzeros %v, scan %v", s.iter, len(f.etas), what, nzs, scan)
	}
	switch {
	case len(f.etas) == 0 && f.fnnz > f.m:
		c.fresh++
	case len(f.etas) > 100:
		c.deep++
	}
	if s.nArt > 0 && s.p1it == 0 {
		c.p1++
	}
	if s.warm {
		c.hot++
	}
}

// TestHypersparseMatchesSweep runs pivotCorpus with every LU solve's
// entering FTRAN and pivot-row BTRAN checked against the full sweeps, and
// requires the corpus to walk the same pivots as without the check.
func TestHypersparseMatchesSweep(t *testing.T) {
	var checks []*sweepCheck
	lu := func(s *simplexState) factorizer {
		c := &sweepCheck{luFactor: new(luFactor), t: t}
		c.init(s)
		checks = append(checks, c)
		return c
	}
	got, want := pivotCorpus(t, lu), pivotCorpus(t, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("the checked corpus walked other pivots:\n got %q\nwant %q", got, want)
	}
	var sum sweepCheck
	for _, c := range checks {
		sum.ftrans += c.ftrans
		sum.btrans += c.btrans
		sum.fresh += c.fresh
		sum.deep += c.deep
		sum.p1 += c.p1
		sum.hot += c.hot
	}
	t.Logf("%d solves: %d FTRANs, %d pivot rows; %d right after a refactorize, %d past 100 etas, %d in phase 1, %d warm",
		len(checks), sum.ftrans, sum.btrans, sum.fresh, sum.deep, sum.p1, sum.hot)
	if sum.ftrans < 3000 || sum.btrans < 2000 || sum.fresh == 0 || sum.deep < 100 || sum.p1 == 0 || sum.hot == 0 {
		t.Errorf("corpus too thin for the check")
	}
}

// workCount counts the entries the reach-based solves read, next to what
// the sweeps they replaced would read.
type workCount struct {
	*luFactor
	solves, touched, sweep [2]int // FTRAN, pivot-row BTRAN
}

func (c *workCount) count(op int, do func()) {
	f := c.luFactor
	sweep := f.fnnz + len(f.etaIdx) + len(f.etas) // m + nnz(L+U) + eta nnz
	before := f.touched
	do()
	c.solves[op]++
	c.touched[op] += f.touched - before
	c.sweep[op] += sweep
}

func (c *workCount) ftranCol(col []nz) (w []float64, nzs []int32) {
	c.count(0, func() { w, nzs = c.luFactor.ftranCol(col) })
	return w, nzs
}

func (c *workCount) pivotRow(i int) (row []float64, nzs []int32) {
	c.count(1, func() { row, nzs = c.luFactor.pivotRow(i) })
	return row, nzs
}

// TestHypersparseWork gates the work of a pivot at epoch scale, cold and
// warm, by counts: the L, U and eta entries an entering FTRAN and a pivot
// row read must average at most a quarter of what the sweep reads (m +
// nnz(L+U) + the eta nonzeros), and the scores a Devex pick reads at most
// a quarter of the column count.
func TestHypersparseWork(t *testing.T) {
	psol, err := epochScaleLP(rand.New(rand.NewSource(78))).Solve(Options{})
	if err != nil || psol.Basis == nil {
		t.Fatalf("previous epoch: %v, basis %v", err, psol.Basis != nil)
	}
	for _, tc := range []struct {
		name string
		ws   *Basis
	}{
		{"cold", nil},
		{"warm", psol.Basis},
	} {
		var c *workCount
		opts := Options{WarmStart: tc.ws, factor: func(s *simplexState) factorizer {
			c = &workCount{luFactor: new(luFactor)}
			c.init(s)
			return c
		}}
		sol, err := epochScaleLP(nil).Solve(opts)
		if err != nil || sol.Status != Optimal || sol.WarmStarted != (tc.ws != nil) {
			t.Fatalf("%s: %v, status %v, warm started %v", tc.name, err, sol.Status, sol.WarmStarted)
		}
		for op, name := range []string{"FTRAN", "pivot-row BTRAN"} {
			if c.solves[op] == 0 {
				t.Fatalf("%s: no %s", tc.name, name)
			}
			ratio := float64(c.touched[op]) / float64(c.sweep[op])
			t.Logf("%s: %d %ss read %.1f entries each, the sweep %.1f (%.3f)", tc.name, c.solves[op], name,
				float64(c.touched[op])/float64(c.solves[op]), float64(c.sweep[op])/float64(c.solves[op]), ratio)
			if ratio > 0.25 {
				t.Errorf("%s: %s reads %.3f of the sweep's entries, budget 0.25", tc.name, name, ratio)
			}
		}
		n := len(c.s.cols)
		perPivot := float64(c.s.pickReads) / float64(sol.Iters)
		t.Logf("%s: the picks of %d pivots read %.1f scores a pivot, of %d columns", tc.name, sol.Iters, perPivot, n)
		if perPivot > float64(n)/4 {
			t.Errorf("%s: the picks read %.1f scores a pivot, budget n/4 = %d", tc.name, perPivot, n/4)
		}
	}
}
