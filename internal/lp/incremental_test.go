package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestTranslateBasisIdentity round-trips a basis through an identity
// translation and warm-starts from it: the solve must accept it and stop
// almost immediately.
func TestTranslateBasisIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := lipsShapedLP(8, 6, 4, rand.New(rand.NewSource(11)), rng)
	base, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != Optimal || base.Basis == nil {
		t.Fatalf("unusable base solve: %v", base.Status)
	}
	varMap := make([]int, p.NumVars())
	for j := range varMap {
		varMap[j] = j
	}
	conMap := make([]int, p.NumCons())
	for i := range conMap {
		conMap[i] = i
	}
	tb := TranslateBasis(base.Basis, varMap, conMap, p.NumVars(), p.NumCons())
	if tb == nil {
		t.Fatal("identity translation returned nil")
	}
	warm, err := p.Solve(Options{WarmStart: tb})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("identity-translated basis rejected")
	}
	if warm.Iters > 2 {
		t.Errorf("%d iterations from own translated optimum, want ≤ 2", warm.Iters)
	}
	if d := relDiff(warm.Objective, base.Objective); d > 1e-9 {
		t.Errorf("objective drifted: %g vs %g", warm.Objective, base.Objective)
	}
}

// shrinkProblem rebuilds p without the variables in drop (a set of old
// indices), returning the new problem and the varMap old→new.
func shrinkProblem(p *Problem, drop map[int]bool) (*Problem, []int) {
	q := New(p.Name() + "-shrunk")
	for i := 0; i < p.NumCons(); i++ {
		q.AddCon(p.ConName(Con(i)), p.ConSense(Con(i)), p.ConRHS(Con(i)))
	}
	varMap := make([]int, p.NumVars())
	for j := 0; j < p.NumVars(); j++ {
		if drop[j] {
			varMap[j] = -1
			continue
		}
		lo, hi := p.Bounds(Var(j))
		v := q.AddVar(p.VarName(Var(j)), lo, hi, p.Cost(Var(j)))
		for i := 0; i < p.NumCons(); i++ {
			if c := p.Coef(Con(i), Var(j)); c != 0 {
				q.SetCoef(Con(i), v, c)
			}
		}
		varMap[j] = int(v)
	}
	return q, varMap
}

// TestTranslateBasisColumnRemoval drops a deterministic subset of columns
// — mimicking machines leaving the instance — translates the stale basis,
// and checks the warm-offered solve against a cold solve of
// the shrunken problem.
func TestTranslateBasisColumnRemoval(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := lipsShapedLP(4+rng.Intn(8), 3+rng.Intn(6), 2+rng.Intn(4),
			rand.New(rand.NewSource(seed+500)), rng)
		base, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			continue
		}
		drop := map[int]bool{}
		for j := 0; j < p.NumVars(); j++ {
			if rng.Intn(5) == 0 {
				drop[j] = true
			}
		}
		q, varMap := shrinkProblem(p, drop)
		conMap := make([]int, p.NumCons())
		for i := range conMap {
			conMap[i] = i
		}
		tb := TranslateBasis(base.Basis, varMap, conMap, q.NumVars(), q.NumCons())
		if tb == nil {
			continue // unrepairable collision: cold start is the designed fallback
		}
		cold, err := q.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		warm, err := q.Solve(Options{WarmStart: tb})
		if err != nil {
			t.Fatalf("seed %d: warm: %v", seed, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("seed %d: warm status %v, cold %v", seed, warm.Status, cold.Status)
		}
		if cold.Status != Optimal {
			continue
		}
		if d := relDiff(warm.Objective, cold.Objective); d > 1e-6 {
			t.Errorf("seed %d: warm objective %g, cold %g (rel %g)", seed, warm.Objective, cold.Objective, d)
		}
	}
}

// TestTranslateBasisRowRemoval removes constraint rows and checks the
// translated basis still warm-solves to the cold optimum.
func TestTranslateBasisRowRemoval(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x40))
		p := lipsShapedLP(4+rng.Intn(6), 3+rng.Intn(5), 2+rng.Intn(4),
			rand.New(rand.NewSource(seed+900)), rng)
		base, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			continue
		}
		// Drop a few LE rows (capacity rows are safe to relax away).
		dropRow := map[int]bool{}
		for i := 0; i < p.NumCons(); i++ {
			if p.ConSense(Con(i)) == LE && rng.Intn(4) == 0 {
				dropRow[i] = true
			}
		}
		q := New("row-shrunk")
		conMap := make([]int, p.NumCons())
		for i := 0; i < p.NumCons(); i++ {
			if dropRow[i] {
				conMap[i] = -1
				continue
			}
			conMap[i] = int(q.AddCon(p.ConName(Con(i)), p.ConSense(Con(i)), p.ConRHS(Con(i))))
		}
		varMap := make([]int, p.NumVars())
		for j := 0; j < p.NumVars(); j++ {
			lo, hi := p.Bounds(Var(j))
			v := q.AddVar(p.VarName(Var(j)), lo, hi, p.Cost(Var(j)))
			varMap[j] = int(v)
			for i := 0; i < p.NumCons(); i++ {
				if conMap[i] < 0 {
					continue
				}
				if c := p.Coef(Con(i), Var(j)); c != 0 {
					q.SetCoef(Con(conMap[i]), v, c)
				}
			}
		}
		tb := TranslateBasis(base.Basis, varMap, conMap, q.NumVars(), q.NumCons())
		if tb == nil {
			continue
		}
		cold, err := q.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		warm, err := q.Solve(Options{WarmStart: tb})
		if err != nil {
			t.Fatalf("seed %d: warm: %v", seed, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("seed %d: warm status %v, cold %v", seed, warm.Status, cold.Status)
		}
		if cold.Status == Optimal {
			if d := relDiff(warm.Objective, cold.Objective); d > 1e-6 {
				t.Errorf("seed %d: warm objective %g, cold %g (rel %g)", seed, warm.Objective, cold.Objective, d)
			}
		}
	}
}

// TestExtendBasisAppend appends columns to a solved problem and warm
// starts from the extended basis: the appended columns must rest at their
// default bounds and the re-solve must match a cold solve.
func TestExtendBasisAppend(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x80))
		p := lipsShapedLP(4+rng.Intn(6), 3+rng.Intn(5), 2+rng.Intn(4),
			rand.New(rand.NewSource(seed+1300)), rng)
		base, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			continue
		}
		// Append a handful of cheap columns into random rows — some will
		// price into the basis, exercising a real re-optimization.
		for k := 0; k < 3; k++ {
			v := p.AddVar("extra", 0, 1+rng.Float64(), rng.Float64()*0.5)
			for tries := 0; tries < 2; tries++ {
				p.SetCoef(Con(rng.Intn(p.NumCons())), v, 0.5+rng.Float64())
			}
		}
		eb := p.ExtendBasis(base.Basis)
		if eb == nil {
			t.Fatalf("seed %d: ExtendBasis returned nil", seed)
		}
		cold, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		warm, err := p.Solve(Options{WarmStart: eb})
		if err != nil {
			t.Fatalf("seed %d: warm: %v", seed, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("seed %d: warm status %v, cold %v", seed, warm.Status, cold.Status)
		}
		if cold.Status != Optimal {
			continue
		}
		if !warm.WarmStarted {
			t.Errorf("seed %d: extended basis rejected", seed)
		}
		if d := relDiff(warm.Objective, cold.Objective); d > 1e-6 {
			t.Errorf("seed %d: warm objective %g, cold %g (rel %g)", seed, warm.Objective, cold.Objective, d)
		}
	}
}

// TestTranslateBasisRejectsGarbage pins the nil returns for inconsistent
// inputs.
func TestTranslateBasisRejectsGarbage(t *testing.T) {
	if TranslateBasis(nil, nil, nil, 0, 0) != nil {
		t.Error("nil basis should translate to nil")
	}
	b := &Basis{NumVars: 2, NumCons: 1, RowCol: []int32{0}, ColStat: []int8{0, 0, 0}}
	if TranslateBasis(b, []int{0}, []int{0}, 2, 1) != nil {
		t.Error("short varMap should be rejected")
	}
	if TranslateBasis(b, []int{0, 1}, []int{0, 1}, 2, 1) != nil {
		t.Error("long conMap should be rejected")
	}
}

// requireDriftRejected re-solves p, whose right-hand sides or bounds
// drifted since base was optimal, warm from base's basis and cold: the
// stale basis is primal infeasible, so the warm solve must reject it and
// land where the cold one does.
func requireDriftRejected(t *testing.T, name string, p *Problem, base *Solution) {
	t.Helper()
	cold, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("%s: cold: %v", name, err)
	}
	warm, err := p.Solve(Options{WarmStart: base.Basis})
	if err != nil {
		t.Fatalf("%s: warm: %v", name, err)
	}
	if warm.WarmStarted {
		t.Fatalf("%s: the drifted basis was accepted", name)
	}
	if warm.Status != cold.Status {
		t.Fatalf("%s: warm status %v, cold %v", name, warm.Status, cold.Status)
	}
	if cold.Status == Optimal {
		if d := relDiff(warm.Objective, cold.Objective); d > 1e-9 {
			t.Errorf("%s: warm objective %g, cold %g (rel %g)", name, warm.Objective, cold.Objective, d)
		}
	}
}

// TestWarmStartRejectsRHSDrift shrinks the capacity (≤) rows under an
// optimal basis — tightenLE over a spread of LiPS shapes, and a uniform
// 0.3× cut — and requires the cold-start fallback.
func TestWarmStartRejectsRHSDrift(t *testing.T) {
	solve := func(name string, p *Problem) *Solution {
		base, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("%s: base: %v", name, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			t.Fatalf("%s: unusable base solve: %v", name, base.Status)
		}
		return base
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		jobs, machines, stores := 4+rng.Intn(8), 3+rng.Intn(5), 2+rng.Intn(4)
		p := lipsShapedLP(jobs, machines, stores, rand.New(rand.NewSource(300+seed)), nil)
		base := solve("tighten", p)
		tightenLE(p, 0.9, rng)
		requireDriftRejected(t, fmt.Sprintf("tighten/%d", seed), p, base)
	}

	p := lipsShapedLP(8, 6, 4, rand.New(rand.NewSource(7)), rand.New(rand.NewSource(23)))
	base := solve("shrink", p)
	for i := 0; i < p.NumCons(); i++ {
		if c := Con(i); p.ConSense(c) == LE && p.ConRHS(c) > 0 {
			p.SetRHS(c, p.ConRHS(c)*0.3)
		}
	}
	requireDriftRejected(t, "shrink-0.3", p, base)
}

// TestWarmStartRejectsBoundDrift cuts every finite positive upper bound
// to 70–100 % under an optimal basis and requires the cold-start
// fallback.
func TestWarmStartRejectsBoundDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		p := lipsShapedLP(4+rng.Intn(6), 3+rng.Intn(5), 2+rng.Intn(4),
			rand.New(rand.NewSource(int64(200+trial))), rng)
		base, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			continue
		}
		for j := 0; j < p.NumVars(); j++ {
			v := Var(j)
			lo, hi := p.Bounds(v)
			if !math.IsInf(hi, 1) && hi > 0 {
				p.SetBounds(v, lo, hi*(0.7+0.3*rng.Float64()))
			}
		}
		requireDriftRejected(t, fmt.Sprintf("trial %d", trial), p, base)
	}
}

// TestExtendBasisMatchesTranslate holds ExtendBasis, which works in place,
// to TranslateBasis under identity maps: on every optimal basis of a
// random corpus, extended onto appended columns and rows, the two agree
// entry for entry, and the in-place result keeps b's storage once it is
// large enough.
func TestExtendBasisMatchesTranslate(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x51))
		p := lipsShapedLP(3+rng.Intn(6), 2+rng.Intn(5), 2+rng.Intn(4), rand.New(rand.NewSource(seed+700)), rng)
		base, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			continue
		}
		b := base.Basis
		for k := rng.Intn(4); k > 0; k-- {
			p.AddVar("extra", 0, 1, rng.Float64())
		}
		for k := rng.Intn(3); k > 0; k-- {
			p.AddCon("extra", LE, 1)
		}
		ident := func(n int) []int {
			m := make([]int, n)
			for i := range m {
				m[i] = i
			}
			return m
		}
		want := TranslateBasis(b, ident(b.NumVars), ident(b.NumCons), p.NumVars(), p.NumCons())
		if got := p.ExtendBasis(b); got != b || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: ExtendBasis gave %+v, TranslateBasis %+v", seed, got, want)
		}
		rowCol, colStat := &b.RowCol[0], &b.ColStat[0]
		if p.ExtendBasis(b) != b || &b.RowCol[0] != rowCol || &b.ColStat[0] != colStat || !reflect.DeepEqual(b, want) {
			t.Fatalf("seed %d: extending onto the same dimensions again moved or changed the basis", seed)
		}
	}
	if New("empty").ExtendBasis(&Basis{NumVars: 1, ColStat: []int8{0}}) != nil {
		t.Error("a basis wider than the problem was extended")
	}
	p := New("one")
	p.AddCon("r", LE, 1)
	p.AddVar("x", 0, 1, 1)
	if p.ExtendBasis(&Basis{NumVars: 1, NumCons: 1, RowCol: []int32{2}, ColStat: []int8{0, 0}}) != nil {
		t.Error("a basis naming a column past its own was extended")
	}
}

// TranslateBasis is the reference TestExtendBasisMatchesTranslate holds
// ExtendBasis to. It remaps a basis across a problem edit that removed,
// reordered, or added variables and constraint rows. varMap[j] is the new
// index of old variable j (−1 if removed) and conMap[i] likewise for rows;
// newVars and newCons are the edited problem's dimensions. The translated
// basis keeps every surviving basic column in its surviving row, repairs
// rows whose basic column vanished with the row's own slack, starts new
// rows on their slack, and marks new columns BasisAuto so the solver
// places them at their default bound. It returns nil when the inputs are
// inconsistent or the repair would need two columns in one slot — the
// caller then simply starts cold, so translation is always safe to
// attempt.
//
// The repaired basis is a valid (nonsingular up to factorization) basis of
// the edited problem but not necessarily primal feasible at the new data;
// the solver accepts it as a warm start only if it is, and otherwise
// starts cold.
func TranslateBasis(b *Basis, varMap, conMap []int, newVars, newCons int) *Basis {
	if b == nil || newVars < 0 || newCons < 0 ||
		len(varMap) != b.NumVars || len(conMap) != b.NumCons ||
		len(b.RowCol) != b.NumCons || len(b.ColStat) != b.NumVars+b.NumCons {
		return nil
	}
	nb := newVars + newCons
	rowCol := make([]int32, newCons)
	for i := range rowCol {
		rowCol[i] = -1
	}
	colStat := make([]int8, nb)
	for j := range colStat {
		colStat[j] = BasisAuto
	}
	// Carry the rest positions of surviving columns (structural and slack).
	for j := 0; j < b.NumVars; j++ {
		if nj := varMap[j]; nj >= 0 && nj < newVars {
			colStat[nj] = b.ColStat[j]
		}
	}
	for i := 0; i < b.NumCons; i++ {
		if ni := conMap[i]; ni >= 0 && ni < newCons {
			colStat[newVars+ni] = b.ColStat[b.NumVars+i]
		}
	}
	// Carry each surviving row's basic column.
	taken := make([]bool, nb)
	for i := 0; i < b.NumCons; i++ {
		ni := conMap[i]
		if ni < 0 || ni >= newCons {
			continue
		}
		j := int(b.RowCol[i])
		nj := -1
		switch {
		case j >= 0 && j < b.NumVars:
			if v := varMap[j]; v >= 0 && v < newVars {
				nj = v
			}
		case j >= b.NumVars && j < b.NumVars+b.NumCons:
			if nr := conMap[j-b.NumVars]; nr >= 0 && nr < newCons {
				nj = newVars + nr
			}
		}
		if nj >= 0 && !taken[nj] {
			rowCol[ni] = int32(nj)
			taken[nj] = true
		}
	}
	// Repair rows whose basic column vanished (and start brand-new rows)
	// on the row's own slack, which always yields a nonsingular basis.
	for i := 0; i < newCons; i++ {
		if rowCol[i] >= 0 {
			continue
		}
		sj := newVars + i
		if taken[sj] {
			return nil // slack already basic elsewhere: unrepairable here
		}
		rowCol[i] = int32(sj)
		taken[sj] = true
		colStat[sj] = BasisAuto
	}
	return &Basis{NumVars: newVars, NumCons: newCons, RowCol: rowCol, ColStat: colStat}
}
