package lp

import (
	"fmt"
	"math"
)

// SolveDense solves the problem with a textbook two-phase dense tableau
// simplex using Bland's rule. It is intended as a slow, independent
// reference implementation for testing Solve; complexity is O(rows²·cols)
// per iteration, so use it only on small problems.
//
// Bounds are compiled away: variables are shifted to a zero lower bound
// (free variables are split into a difference of nonnegatives) and finite
// upper bounds become explicit rows.
func (p *Problem) SolveDense(maxIters int) (*Solution, error) {
	if maxIters <= 0 {
		maxIters = 50000
	}
	const tol = 1e-9

	// Column plan: for each structural variable, either one shifted
	// column (finite lower) or a plus/minus pair (free below).
	type colPlan struct {
		plus, minus int // tableau column indices; minus == -1 if unused
		shift       float64
	}
	plans := make([]colPlan, len(p.vars))
	ncols := 0
	extraRows := 0
	for i := range p.vars {
		v := &p.vars[i]
		if !math.IsInf(v.lower, -1) {
			plans[i] = colPlan{plus: ncols, minus: -1, shift: v.lower}
			ncols++
			if !math.IsInf(v.upper, 1) {
				extraRows++
			}
		} else if !math.IsInf(v.upper, 1) {
			// (-Inf, u]: substitute x = u − x', x' ≥ 0.
			plans[i] = colPlan{plus: -1, minus: ncols, shift: v.upper}
			ncols++
		} else {
			plans[i] = colPlan{plus: ncols, minus: ncols + 1}
			ncols += 2
		}
	}
	nStructCols := ncols
	m := len(p.cons) + extraRows

	// Dense constraint matrix over the structural columns plus rhs and
	// senses; upper-bound rows appended after the user rows.
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, nStructCols)
	}
	rhs := make([]float64, m)
	senses := make([]Sense, m)
	for i := range p.cons {
		rhs[i] = p.cons[i].rhs
		senses[i] = p.cons[i].sense
	}
	for j := range p.vars {
		pl := plans[j]
		for _, e := range p.vars[j].col {
			if pl.plus >= 0 {
				a[e.row][pl.plus] += e.coef
			}
			if pl.minus >= 0 {
				a[e.row][pl.minus] -= e.coef
			}
			rhs[e.row] -= e.coef * pl.shift
		}
	}
	ub := len(p.cons)
	for j := range p.vars {
		v := &p.vars[j]
		pl := plans[j]
		if pl.plus >= 0 && pl.minus == -1 && !math.IsInf(v.upper, 1) {
			a[ub][pl.plus] = 1
			rhs[ub] = v.upper - v.lower
			senses[ub] = LE
			ub++
		}
	}

	// Objective over tableau columns, and the constant from shifting.
	cost := make([]float64, nStructCols)
	shiftObj := 0.0
	for j := range p.vars {
		pl := plans[j]
		if pl.plus >= 0 {
			cost[pl.plus] += p.vars[j].cost
		}
		if pl.minus >= 0 {
			cost[pl.minus] -= p.vars[j].cost
		}
		shiftObj += p.vars[j].cost * pl.shift
	}

	// Add slacks/surplus, normalise rhs ≥ 0, then artificials for every
	// row (simple and robust).
	for i := 0; i < m; i++ {
		switch senses[i] {
		case LE, GE:
			ncols++
		}
	}
	slackStart := nStructCols
	artStart := ncols
	ncols += m
	tab := make([][]float64, m)
	for i := range tab {
		tab[i] = make([]float64, ncols+1) // last column is rhs
		copy(tab[i], a[i])
	}
	sc := slackStart
	for i := 0; i < m; i++ {
		switch senses[i] {
		case LE:
			tab[i][sc] = 1
			sc++
		case GE:
			tab[i][sc] = -1
			sc++
		}
	}
	for i := 0; i < m; i++ {
		tab[i][ncols] = rhs[i]
		if tab[i][ncols] < 0 {
			for k := 0; k <= ncols; k++ {
				tab[i][k] = -tab[i][k]
			}
		}
		tab[i][artStart+i] = 1
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = artStart + i
	}

	fullCost := make([]float64, ncols)
	copy(fullCost, cost)
	phase1Cost := make([]float64, ncols)
	for i := 0; i < m; i++ {
		phase1Cost[artStart+i] = 1
	}

	iters := 0
	runPhase := func(c []float64, banned int) (Status, error) {
		for {
			if iters >= maxIters {
				return IterLimit, nil
			}
			// Reduced costs: d_j = c_j − c_B^T tab_col_j.
			entering := -1
			for j := 0; j < ncols; j++ {
				if j >= banned {
					break
				}
				inB := false
				for _, bj := range basis {
					if bj == j {
						inB = true
						break
					}
				}
				if inB {
					continue
				}
				d := c[j]
				for i := 0; i < m; i++ {
					d -= c[basis[i]] * tab[i][j]
				}
				if d < -tol {
					entering = j // Bland: first improving index
					break
				}
			}
			if entering == -1 {
				return Optimal, nil
			}
			leaving := -1
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				if tab[i][entering] > tol {
					r := tab[i][ncols] / tab[i][entering]
					if r < best-tol || (r < best+tol && (leaving == -1 || basis[i] < basis[leaving])) {
						best = r
						leaving = i
					}
				}
			}
			if leaving == -1 {
				return Unbounded, nil
			}
			piv := tab[leaving][entering]
			for k := 0; k <= ncols; k++ {
				tab[leaving][k] /= piv
			}
			for i := 0; i < m; i++ {
				if i == leaving {
					continue
				}
				f := tab[i][entering]
				if f == 0 {
					continue
				}
				for k := 0; k <= ncols; k++ {
					tab[i][k] -= f * tab[leaving][k]
				}
			}
			basis[leaving] = entering
			iters++
		}
	}

	st, err := runPhase(phase1Cost, ncols)
	if err != nil {
		return nil, err
	}
	if st != Optimal {
		return &Solution{Status: st, Stats: Stats{Iters: iters}}, nil
	}
	p1obj := 0.0
	for i := 0; i < m; i++ {
		if basis[i] >= artStart {
			p1obj += tab[i][ncols]
		}
	}
	if p1obj > 1e-6 {
		return &Solution{Status: Infeasible, Stats: Stats{Iters: iters}}, nil
	}
	// Pivot lingering zero-valued artificials out where possible.
	for i := 0; i < m; i++ {
		if basis[i] < artStart {
			continue
		}
		for j := 0; j < artStart; j++ {
			if math.Abs(tab[i][j]) > 1e-7 {
				piv := tab[i][j]
				for k := 0; k <= ncols; k++ {
					tab[i][k] /= piv
				}
				for r := 0; r < m; r++ {
					if r == i {
						continue
					}
					f := tab[r][j]
					if f == 0 {
						continue
					}
					for k := 0; k <= ncols; k++ {
						tab[r][k] -= f * tab[i][k]
					}
				}
				basis[i] = j
				break
			}
		}
	}

	st, err = runPhase(fullCost, artStart)
	if err != nil {
		return nil, err
	}
	if st != Optimal {
		return &Solution{Status: st, Stats: Stats{Iters: iters}}, nil
	}

	// Extract structural values: undo shifts and splits.
	xt := make([]float64, ncols)
	for i := 0; i < m; i++ {
		if basis[i] >= artStart && tab[i][ncols] > 1e-6 {
			return nil, fmt.Errorf("lp: dense solver ended with positive artificial %g", tab[i][ncols])
		}
		xt[basis[i]] = tab[i][ncols]
	}
	sol := &Solution{Status: Optimal, Stats: Stats{Iters: iters}, X: make([]float64, len(p.vars))}
	for j := range p.vars {
		pl := plans[j]
		val := pl.shift
		if pl.plus >= 0 {
			val += xt[pl.plus]
		}
		if pl.minus >= 0 {
			val -= xt[pl.minus]
		}
		sol.X[j] = val
	}
	sol.Objective = p.Objective(sol.X)
	_ = shiftObj
	return sol, nil
}
