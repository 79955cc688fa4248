package lp

import (
	"math"
	"time"
)

// This file implements the presolve/postsolve layer: a reduction pass that
// shrinks a problem before the simplex sees it, and the reverse sweep that
// reconstructs the full primal and dual solution — plus a valid, warm-
// startable Basis — from the reduced solve.
//
// Rules applied (to a fixpoint):
//
//   - empty rows: dropped (or the problem is declared infeasible);
//   - fixed variables (lower == upper): substituted into the RHS;
//   - empty columns: fixed at their cheaper bound when that is finite
//     (left in place otherwise so the Infeasible-versus-Unbounded status
//     ordering matches the dense reference solver);
//   - singleton rows: folded into the variable's bounds and dropped;
//   - forcing rows: a row whose extreme activity exactly meets its RHS
//     fixes every variable it touches at the corresponding bound;
//   - dominated columns: when column j is at least as helpful in every
//     shared row, no more expensive, and unbounded above, a column k with
//     the same row support is fixed at its lower bound (the rule that
//     retires the online model's fake-node overflow columns when a real
//     column prices below them).
//
// Postsolve replays the reduction stack in reverse. Removed rows get
// their slack basic and a complementary dual (zero for redundant rows;
// the bound-ratio d_j/a_ij for a singleton row whose implied bound is
// tight, in which case the variable is promoted into the basis of the
// removed row; the min/max ratio over the fixed columns for forcing
// rows), which keeps the reconstructed solution dual feasible and the
// reconstructed basis nonsingular and primal feasible — so it can seed
// the next epoch's warm start exactly like an unpresolved basis.

// Presolve stack record kinds.
const (
	recFixCol int8 = iota
	recEmptyRow
	recSingletonRow
	recForcingRow
)

// psRec is one reduction on the presolve stack.
type psRec struct {
	kind         int8
	row          int32   // recEmptyRow / recSingletonRow / recForcingRow
	col          int32   // recFixCol / recSingletonRow
	a            float64 // singleton coefficient; forcing side (+1 min, −1 max)
	val          float64 // fixed value (recFixCol)
	impLo, impHi float64 // bounds a singleton row applied (±Inf = untouched)
	oldLo, oldHi float64 // bounds before the singleton tightening
	cols         []int32 // columns a forcing row fixed
}

// presolveResult carries the reduced problem and everything postsolve
// needs to expand a reduced solution back to the original space.
type presolveResult struct {
	p                        *Problem // reduced problem (nil when infeasible)
	infeasible               bool
	origVar                  []int32   // reduced column → original column
	origCon                  []int32   // reduced row → original row
	lo, hi                   []float64 // final working bounds per original column
	stack                    []psRec
	rowsRemoved, colsRemoved int
}

// presolveProblem reduces p. It returns nil when no rule fires, so the
// caller solves the original problem with zero overhead.
func presolveProblem(p *Problem, tol float64) *presolveResult {
	n := len(p.vars)
	m := len(p.cons)
	pr := &presolveResult{
		lo: make([]float64, n), hi: make([]float64, n),
	}
	cost := make([]float64, n)
	for j := 0; j < n; j++ {
		pr.lo[j], pr.hi[j], cost[j] = p.vars[j].lower, p.vars[j].upper, p.vars[j].cost
	}
	lo, hi := pr.lo, pr.hi
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		rhs[i] = p.cons[i].rhs
	}
	aliveRow := make([]bool, m)
	aliveCol := make([]bool, n)
	rowCols := make([][]int32, m)
	rowCoefs := make([][]float64, m)
	rowLen := make([]int, m)
	colLen := make([]int, n)
	for i := range aliveRow {
		aliveRow[i] = true
	}
	for j := 0; j < n; j++ {
		aliveCol[j] = true
		for _, e := range p.vars[j].col {
			if e.coef == 0 {
				continue
			}
			rowCols[e.row] = append(rowCols[e.row], int32(j))
			rowCoefs[e.row] = append(rowCoefs[e.row], e.coef)
			rowLen[e.row]++
			colLen[j]++
		}
	}

	// ftol scales an infeasibility verdict; crossings inside it are
	// repaired instead, matching the slack the simplex itself tolerates.
	ftol := func(ref float64) float64 { return 1e-7 * (1 + math.Abs(ref)) }

	fixCol := func(j int32, v float64) {
		aliveCol[j] = false
		pr.colsRemoved++
		for _, e := range p.vars[j].col {
			if e.coef == 0 || !aliveRow[e.row] {
				continue
			}
			rhs[e.row] -= e.coef * v
			rowLen[e.row]--
		}
		pr.stack = append(pr.stack, psRec{kind: recFixCol, col: j, val: v})
	}
	removeRow := func(i int32) {
		aliveRow[i] = false
		pr.rowsRemoved++
		for _, c := range rowCols[i] {
			if aliveCol[c] {
				colLen[c]--
			}
		}
	}

	changed := true
	for changed && !pr.infeasible {
		changed = false

		// Column rules: crossed bounds, fixed variables, empty columns.
		for j := int32(0); int(j) < n && !pr.infeasible; j++ {
			if !aliveCol[j] {
				continue
			}
			if lo[j] > hi[j] {
				if lo[j] > hi[j]+ftol(hi[j]) {
					pr.infeasible = true
					break
				}
				mid := 0.5 * (lo[j] + hi[j])
				lo[j], hi[j] = mid, mid
			}
			switch {
			case lo[j] == hi[j]:
				fixCol(j, lo[j])
				changed = true
			case colLen[j] == 0:
				switch {
				case cost[j] > 0 && !math.IsInf(lo[j], -1):
					fixCol(j, lo[j])
					changed = true
				case cost[j] < 0 && !math.IsInf(hi[j], 1):
					fixCol(j, hi[j])
					changed = true
				case cost[j] == 0:
					v := 0.0
					if !math.IsInf(lo[j], -1) {
						v = lo[j]
					} else if !math.IsInf(hi[j], 1) {
						v = hi[j]
					}
					fixCol(j, v)
					changed = true
				}
				// A costed column with no finite cheap bound stays: the
				// solver reports Unbounded (or Infeasible, which dense
				// finds first) itself.
			}
		}

		// Row rules: empty, singleton, forcing.
		for i := int32(0); int(i) < m && !pr.infeasible; i++ {
			if !aliveRow[i] {
				continue
			}
			sense := p.cons[i].sense
			switch rowLen[i] {
			case 0:
				bad := false
				switch sense {
				case LE:
					bad = rhs[i] < -ftol(rhs[i])
				case GE:
					bad = rhs[i] > ftol(rhs[i])
				case EQ:
					bad = math.Abs(rhs[i]) > ftol(rhs[i])
				}
				if bad {
					pr.infeasible = true
					break
				}
				removeRow(i)
				pr.stack = append(pr.stack, psRec{kind: recEmptyRow, row: i})
				changed = true
			case 1:
				var j int32 = -1
				var a float64
				for idx, c := range rowCols[i] {
					if aliveCol[c] {
						j, a = c, rowCoefs[i][idx]
						break
					}
				}
				if j < 0 || math.Abs(a) < 1e-12 {
					continue // degenerate; leave to the solver
				}
				v := rhs[i] / a
				newLo, newHi := math.Inf(-1), math.Inf(1)
				switch {
				case sense == EQ:
					newLo, newHi = v, v
				case (sense == LE) == (a > 0):
					newHi = v
				default:
					newLo = v
				}
				rec := psRec{kind: recSingletonRow, row: i, col: j, a: a,
					oldLo: lo[j], oldHi: hi[j], impLo: math.Inf(-1), impHi: math.Inf(1)}
				if newLo > lo[j] {
					if newLo > hi[j]+ftol(newLo) {
						pr.infeasible = true
						break
					}
					lo[j], rec.impLo = newLo, newLo
				}
				if newHi < hi[j] {
					if newHi < lo[j]-ftol(newHi) {
						pr.infeasible = true
						break
					}
					hi[j], rec.impHi = newHi, newHi
				}
				removeRow(i)
				pr.stack = append(pr.stack, rec)
				changed = true
			default:
				// Forcing rows: the extreme activity already meets the
				// RHS, so every variable is pinned at the matching bound.
				minAct, maxAct := 0.0, 0.0
				for idx, c := range rowCols[i] {
					if !aliveCol[c] {
						continue
					}
					a := rowCoefs[i][idx]
					if a > 0 {
						minAct += a * lo[c]
						maxAct += a * hi[c]
					} else {
						minAct += a * hi[c]
						maxAct += a * lo[c]
					}
				}
				switch sense {
				case LE:
					if minAct > rhs[i]+ftol(rhs[i]) {
						pr.infeasible = true
					}
				case GE:
					if maxAct < rhs[i]-ftol(rhs[i]) {
						pr.infeasible = true
					}
				case EQ:
					if minAct > rhs[i]+ftol(rhs[i]) || maxAct < rhs[i]-ftol(rhs[i]) {
						pr.infeasible = true
					}
				}
				if pr.infeasible {
					break
				}
				atMin := (sense == LE || sense == EQ) &&
					!math.IsInf(minAct, 0) && minAct >= rhs[i]-1e-12*(1+math.Abs(rhs[i]))
				atMax := (sense == GE || sense == EQ) &&
					!math.IsInf(maxAct, 0) && maxAct <= rhs[i]+1e-12*(1+math.Abs(rhs[i]))
				if !atMin && !atMax {
					continue
				}
				side := 1.0
				if !atMin {
					side = -1
				}
				var fixed []int32
				for idx, c := range rowCols[i] {
					if !aliveCol[c] {
						continue
					}
					a := rowCoefs[i][idx]
					v := lo[c]
					if (a > 0) != (side > 0) {
						v = hi[c]
					}
					fixCol(c, v)
					fixed = append(fixed, c)
				}
				removeRow(i)
				pr.stack = append(pr.stack, psRec{kind: recForcingRow, row: i, a: side, cols: fixed})
				changed = true
			}
		}

		// Dominated columns: only once the cheap rules run dry.
		if !changed && !pr.infeasible {
			changed = dominatePass(p, cost, lo, hi, aliveRow, aliveCol, colLen, fixCol)
		}
	}

	if pr.infeasible {
		return pr
	}
	if len(pr.stack) == 0 {
		return nil
	}

	// Assemble the reduced problem over the surviving rows and columns,
	// preserving their relative order.
	rowMap := make([]int32, m)
	for i := 0; i < m; i++ {
		if aliveRow[i] {
			rowMap[i] = int32(len(pr.origCon))
			pr.origCon = append(pr.origCon, int32(i))
		}
	}
	red := &Problem{name: p.name}
	red.cons = make([]constraint, len(pr.origCon))
	for ri, i := range pr.origCon {
		c := &p.cons[i]
		red.cons[ri] = constraint{sense: c.sense, rhs: rhs[i]}
	}
	for j := 0; j < n; j++ {
		if !aliveCol[j] {
			continue
		}
		pr.origVar = append(pr.origVar, int32(j))
		v := &p.vars[j]
		var col []nz
		for _, e := range v.col {
			if e.coef != 0 && aliveRow[e.row] {
				col = append(col, nz{row: int(rowMap[e.row]), coef: e.coef})
			}
		}
		red.nnz += len(col)
		red.vars = append(red.vars, variable{lower: lo[j], upper: hi[j], cost: v.cost, col: col})
	}
	pr.p = red
	return pr
}

// dominatePass fixes dominated columns at their lower bound: j dominates k
// when both touch exactly the same live rows, j is at least as helpful in
// each (≤ the coefficient of k in LE rows, ≥ in GE rows, equal in EQ
// rows), costs no more, and has no upper bound to run into.
//
// Only a column with an infinite upper bound can dominate, so the pass
// first scans for one and bails out allocation-free when none exists —
// the common case for scheduling LPs, whose columns are all box-bounded.
func dominatePass(p *Problem, cost, lo, hi []float64, aliveRow, aliveCol []bool,
	colLen []int, fixCol func(int32, float64)) bool {
	const maxPattern = 12
	const maxBucket = 32
	n := len(aliveCol)
	eligible := func(j int) bool {
		return aliveCol[j] && colLen[j] >= 1 && colLen[j] <= maxPattern
	}
	anyWinner := false
	for j := 0; j < n; j++ {
		if eligible(j) && math.IsInf(hi[j], 1) {
			anyWinner = true
			break
		}
	}
	if !anyWinner {
		return false
	}
	// Bucket columns by an order-independent hash of their live row set;
	// the pairwise check below re-verifies the support exactly.
	hashOf := func(j int) uint64 {
		var h uint64 = 1469598103934665603
		for _, e := range p.vars[j].col {
			if e.coef != 0 && aliveRow[e.row] {
				h ^= (uint64(e.row) + 0x9e3779b9) * 1099511628211
			}
		}
		return h ^ uint64(colLen[j])*0x9e3779b97f4a7c15
	}
	buckets := make(map[uint64][]int32)
	for j := 0; j < n; j++ {
		if eligible(j) {
			h := hashOf(j)
			buckets[h] = append(buckets[h], int32(j))
		}
	}
	coefIn := func(k int32, row int) (float64, bool) {
		for _, e := range p.vars[k].col {
			if e.row == row && e.coef != 0 {
				return e.coef, true
			}
		}
		return 0, false
	}
	dominates := func(a, b int32) bool {
		if colLen[a] != colLen[b] ||
			!math.IsInf(hi[a], 1) || math.IsInf(lo[b], -1) ||
			cost[a] > cost[b] {
			return false
		}
		for _, ea := range p.vars[a].col {
			if ea.coef == 0 || !aliveRow[ea.row] {
				continue
			}
			bc, ok := coefIn(b, ea.row)
			if !ok {
				return false
			}
			switch p.cons[ea.row].sense {
			case LE:
				if ea.coef > bc {
					return false
				}
			case GE:
				if ea.coef < bc {
					return false
				}
			case EQ:
				if ea.coef != bc {
					return false
				}
			}
		}
		return true
	}
	fired := false
	for _, bucket := range buckets {
		if len(bucket) < 2 || len(bucket) > maxBucket {
			continue
		}
		hasWinner := false
		for _, j := range bucket {
			if math.IsInf(hi[j], 1) {
				hasWinner = true
				break
			}
		}
		if !hasWinner {
			continue
		}
		for x := 0; x < len(bucket); x++ {
			if !aliveCol[bucket[x]] {
				continue
			}
			for y := x + 1; y < len(bucket); y++ {
				if !aliveCol[bucket[y]] {
					continue
				}
				if dominates(bucket[x], bucket[y]) {
					fixCol(bucket[y], lo[bucket[y]])
					fired = true
				} else if dominates(bucket[y], bucket[x]) {
					fixCol(bucket[x], lo[bucket[x]])
					fired = true
					break
				}
			}
		}
	}
	return fired
}

// postsolve expands a reduced solution back to the original problem,
// reconstructing X, the duals, and (when the reduced solve produced a
// basis, or the whole problem presolved away) a valid Basis.
func (pr *presolveResult) postsolve(p *Problem, rsol *Solution) *Solution {
	sol := &Solution{Status: rsol.Status, Stats: rsol.Stats, Pivots: rsol.Pivots}
	if rsol.Status != Optimal {
		return sol
	}
	n, m := len(p.vars), len(p.cons)
	redN := len(pr.origVar)
	X := make([]float64, n)
	dual := make([]float64, m)
	for rj, j := range pr.origVar {
		X[j] = rsol.X[rj]
	}
	if rsol.Dual != nil {
		for ri, i := range pr.origCon {
			dual[i] = rsol.Dual[ri]
		}
	}
	for t := range pr.stack {
		if rec := &pr.stack[t]; rec.kind == recFixCol {
			X[rec.col] = rec.val
		}
	}

	// Basis bookkeeping: available when the reduced solve produced a
	// basis, or when presolve dissolved the whole problem (every row and
	// column is then reconstructed by the reverse sweep).
	haveBasis := rsol.Basis != nil || (redN == 0 && len(pr.origCon) == 0)
	var rowCol []int32
	var colStat []int8
	isBasic := make([]bool, n)
	if haveBasis {
		rowCol = make([]int32, m)
		for i := range rowCol {
			rowCol[i] = -1
		}
		colStat = make([]int8, n+m)
		if rb := rsol.Basis; rb != nil {
			for rj, j := range pr.origVar {
				colStat[j] = rb.ColStat[rj]
			}
			for ri, i := range pr.origCon {
				colStat[n+int(i)] = rb.ColStat[redN+ri]
			}
			for ri, i := range pr.origCon {
				c := rb.RowCol[ri]
				if int(c) < redN {
					rowCol[i] = pr.origVar[c]
				} else {
					rowCol[i] = int32(n) + pr.origCon[int(c)-redN]
				}
			}
			for _, c := range rowCol {
				if c >= 0 && int(c) < n {
					isBasic[c] = true
				}
			}
		}
	}

	// Working bounds during the reverse sweep: start from the final
	// tightened bounds; singleton-row pops restore the earlier ones.
	wLo := append([]float64(nil), pr.lo...)
	wHi := append([]float64(nil), pr.hi...)

	// reducedCost computes d_j over the original columns against the
	// duals reconstructed so far, optionally skipping one row. Rows
	// removed before the record being replayed share no live columns
	// with it, so every dual that matters is already in place.
	reducedCost := func(j, skipRow int32) float64 {
		d := p.vars[j].cost
		for _, e := range p.vars[j].col {
			if int32(e.row) == skipRow || e.coef == 0 {
				continue
			}
			d -= dual[e.row] * e.coef
		}
		return d
	}

	for t := len(pr.stack) - 1; t >= 0; t-- {
		rec := &pr.stack[t]
		switch rec.kind {
		case recFixCol:
			if haveBasis {
				j := rec.col
				eps := 1e-7 * (1 + math.Abs(rec.val))
				switch {
				case !math.IsInf(wLo[j], -1) && rec.val <= wLo[j]+eps:
					colStat[j] = atLower
				case !math.IsInf(wHi[j], 1) && rec.val >= wHi[j]-eps:
					colStat[j] = atUpper
				case math.IsInf(wLo[j], -1) && math.IsInf(wHi[j], 1):
					colStat[j] = atFree
				default:
					// Interior against the original bounds: the value
					// came from a singleton-row tightening whose record
					// pops later and promotes this column into the basis.
					colStat[j] = atLower
				}
			}
		case recEmptyRow:
			dual[rec.row] = 0
			if haveBasis {
				rowCol[rec.row] = int32(n) + rec.row
			}
		case recForcingRow:
			i := rec.row
			// The tightest multiplier keeping every fixed column dual-
			// feasible at its bound: min over d_j/a_ij on the min side,
			// max on the max side, clamped by the row's dual sign.
			first := true
			lim := 0.0
			for _, c := range rec.cols {
				var a float64
				for _, e := range p.vars[c].col {
					if int32(e.row) == i {
						a = e.coef
						break
					}
				}
				if a == 0 {
					continue
				}
				r := reducedCost(c, i) / a
				switch {
				case first:
					lim, first = r, false
				case rec.a > 0 && r < lim:
					lim = r
				case rec.a < 0 && r > lim:
					lim = r
				}
			}
			switch p.cons[i].sense {
			case LE:
				lim = math.Min(0, lim)
			case GE:
				lim = math.Max(0, lim)
			}
			dual[i] = lim
			if haveBasis {
				rowCol[i] = int32(n) + i
			}
		case recSingletonRow:
			i, j, a := rec.row, rec.col, rec.a
			tightLo := !math.IsInf(rec.impLo, -1) &&
				math.Abs(X[j]-rec.impLo) <= 1e-7*(1+math.Abs(rec.impLo))
			tightHi := !math.IsInf(rec.impHi, 1) &&
				math.Abs(X[j]-rec.impHi) <= 1e-7*(1+math.Abs(rec.impHi))
			tight := (tightLo || tightHi) && !isBasic[j]
			if tight {
				y := reducedCost(j, i) / a
				switch p.cons[i].sense {
				case LE:
					y = math.Min(0, y)
				case GE:
					y = math.Max(0, y)
				}
				dual[i] = y
			} else {
				dual[i] = 0
			}
			if haveBasis {
				if tight {
					// The implied bound is active: x_j takes the basic
					// slot of the removed row (the row is tight, so its
					// slack rests at the matching bound) — this is what
					// keeps the reconstructed basis nonsingular and the
					// nonbasic columns on original bounds.
					rowCol[i] = j
					isBasic[j] = true
					colStat[j] = int8(basic)
					if p.cons[i].sense == GE {
						colStat[n+int(i)] = atUpper
					} else {
						colStat[n+int(i)] = atLower
					}
				} else {
					rowCol[i] = int32(n) + i
				}
			}
			wLo[j], wHi[j] = rec.oldLo, rec.oldHi
		}
	}

	for j := 0; j < n; j++ {
		X[j] = math.Min(math.Max(X[j], p.vars[j].lower), p.vars[j].upper)
	}
	sol.X = X
	sol.Objective = p.Objective(X)
	sol.Dual = dual
	if haveBasis {
		sol.Basis = &Basis{NumVars: n, NumCons: m, RowCol: rowCol, ColStat: colStat}
	}
	return sol
}

// solvePresolved runs presolve → reduced solve → postsolve. It returns
// (nil, nil, false) when presolve finds nothing to do.
func (p *Problem) solvePresolved(opts Options) (*Solution, error, bool) {
	t0 := time.Now()
	pr := presolveProblem(p, opts.Tol)
	if pr == nil {
		return nil, nil, false
	}
	spent := time.Since(t0)
	sol := &Solution{Status: Infeasible}
	if !pr.infeasible {
		var rsol *Solution
		var err error
		if len(pr.p.cons) == 0 {
			rsol, err = pr.p.solveUnconstrained(opts)
		} else {
			rsol, err = newSimplexState(pr.p, opts).run()
		}
		if err != nil {
			return nil, err, true
		}
		t1 := time.Now()
		sol = pr.postsolve(p, rsol)
		spent += time.Since(t1)
	}
	sol.PresolveRows, sol.PresolveCols, sol.PresolveTime = pr.rowsRemoved, pr.colsRemoved, spent
	return sol, nil, true
}
