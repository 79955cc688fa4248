package lp

import (
	"fmt"
	"math"
	"slices"
)

// luFactor represents B⁻¹ as a sparse LU factorization of the basis plus a
// product-form eta file accumulated between refactorizations.
//
// The factorization eliminates one (row, slot) pair per step k:
//
//	rowOf[k]  — the constraint row pivoted at step k
//	slotOf[k] — the basis slot (column) pivoted at step k
//
// In step space the basis reads B[rowOf[k1]][slotOf[k2]] = (L·U)[k1][k2]
// with L unit lower triangular and U upper triangular. L is stored by
// elimination step as the multipliers applied below the pivot (indexed by
// original row), U by step as the pivot value uDiag[k] plus the surviving
// entries of the pivot row (indexed by later step). Pivot order is chosen
// by singleton elimination first — slack columns and singleton rows cost
// no fill-in at all — then Markowitz minimum (r−1)(c−1) with threshold
// partial pivoting on the remaining "bump".
//
// Basis changes append eta vectors (the FTRAN image of the entering
// column) instead of touching L/U; FTRAN applies them oldest first, BTRAN
// newest first. needsRefactor bounds the eta file so solves stay within a
// constant factor of the fresh-factorization cost.
//
// The two solves of every pivot — the entering column's FTRAN and the
// Devex pivot row's BTRAN — have right-hand sides with one to a handful
// of nonzeros and images with a dozen, so they cost what they touch
// (Gilbert–Peierls): a symbolic pass collects the elimination steps the
// right-hand side reaches, and only those are applied, in the order the
// sweep would apply them. The sweep adds or subtracts exact zeros at
// every other step, so both return the sweep's values (a zero may differ
// in sign), each with its nonzero indices in ascending order.
//
// The dual solve's right-hand side c_B is dense, and it runs only when the
// simplex prices every column afresh (pricing.go), so it stays a sweep,
// like x_B's solve.
//
// The factor lives in the pooled solve workspace, and every slice in it —
// the per-step L and U rows, refactorize's active-submatrix copies and
// the eta arena — keeps its capacity from one factorization to the next,
// so a steady-state refactorization or update allocates nothing.
type luFactor struct {
	s *simplexState
	m int

	rowOf   []int32 // step → original row
	slotOf  []int32 // step → basis slot
	posRow  []int32 // original row → step (inverse of rowOf)
	posSlot []int32 // basis slot → step (inverse of slotOf)

	lIdx  [][]int32   // L, by step: original-row indices below the pivot
	lVal  [][]float64 // …and their multipliers
	uDiag []float64   // pivot value at each step
	uIdx  [][]int32   // U, by step: later-step indices of the pivot row
	uVal  [][]float64 // …and their values
	fnnz  int         // L+U+diag nonzeros after the last refactorization

	// The transposes the reaches walk, rebuilt with L and U: the steps
	// whose U row holds step j are utIdx[utStart[j]:utStart[j+1]], with
	// those entries in utVal, and the steps whose L column holds row
	// rowOf[p] are ltIdx[ltStart[p]:ltStart[p+1]].
	utStart, utIdx []int32
	utVal          []float64
	ltStart, ltIdx []int32

	etas   []luEta
	etaIdx []int32   // the arena every eta's nonzeros are carved from,
	etaVal []float64 // emptied with the eta file
	// slotEtas[i] lists, oldest first, the etas that hold slot i as their
	// pivot or among their nonzeros: the only etas pivotRow must apply
	// once slot i is nonzero.
	slotEtas [][]int32

	work  []float64 // row- or slot-space scratch of the sweeps
	stepv []float64 // step-space scratch of the sweeps

	// Scratch of the reach-based solves, all zero (false) between them:
	// each solve clears exactly what it wrote.
	sv      []float64 // row space
	sz      []float64 // step space
	sb      []float64 // slot space
	seen    []bool    // steps already in the reach
	smark   []bool    // slots already in a written set
	slots   []int32   // written slots of pivotRow's eta stage
	reachA  []int32   // reached steps
	reachB  []int32
	etaHeap []int32 // max-heap of etas pivotRow has still to apply
	etaIn   []bool  // membership of etaHeap

	// The results of ftranCol and pivotRow: each vector with every index
	// it was written at (zeroed by the next call) and its nonzeros.
	w, prow   []float64
	wSet, wNZ []int32
	pSet, pNZ []int32
	touched   int // L, U and eta entries the reach-based solves read

	// refactorize's active submatrix: columns by basis slot, the slots
	// each row meets, the U rows by slot before their remap to steps, the
	// active counts, and the singleton queues.
	colRow, rowSlot, uSlot [][]int32
	colVal                 [][]float64
	rowLen, colLen         []int
	colQ, rowQ             []int32
}

// luEta is one product-form update: the basis column in slot r was
// replaced by a column whose FTRAN image is w; wr = w[r], and
// etaIdx/etaVal[lo:hi] hold the remaining nonzeros of w.
type luEta struct {
	r      int32
	wr     float64
	lo, hi int
}

// init sizes the factor for s's basis dimension. Its contents are set by
// resetIdentity or refactorize before any solve reads them.
func (f *luFactor) init(s *simplexState) {
	m := s.m
	f.s, f.m = s, m
	f.rowOf, f.slotOf = resize(f.rowOf, m), resize(f.slotOf, m)
	f.posRow, f.posSlot = resize(f.posRow, m), resize(f.posSlot, m)
	f.lIdx, f.lVal = resize(f.lIdx, m), resize(f.lVal, m)
	f.uDiag = resize(f.uDiag, m)
	f.uIdx, f.uVal = resize(f.uIdx, m), resize(f.uVal, m)
	f.utStart, f.ltStart = resize(f.utStart, m+1), resize(f.ltStart, m+1)
	f.slotEtas = resize(f.slotEtas, m)
	for i := range f.slotEtas {
		f.slotEtas[i] = f.slotEtas[i][:0]
	}
	f.work, f.stepv = resize(f.work, m), resize(f.stepv, m)
	f.sv, f.sz, f.sb = resize(f.sv, m), resize(f.sz, m), resize(f.sb, m)
	f.seen, f.smark = resize(f.seen, m), resize(f.smark, m)
	f.w, f.prow = resize(f.w, m), resize(f.prow, m)
	for _, v := range [][]float64{f.sv, f.sz, f.sb, f.w, f.prow} {
		clear(v)
	}
	clear(f.seen)
	clear(f.smark)
	clear(f.etaIn)
	f.wSet, f.wNZ, f.pSet, f.pNZ = f.wSet[:0], f.wNZ[:0], f.pSet[:0], f.pNZ[:0]
	f.touched = 0
	f.colRow, f.colVal = resize(f.colRow, m), resize(f.colVal, m)
	f.rowSlot, f.uSlot = resize(f.rowSlot, m), resize(f.uSlot, m)
	f.rowLen, f.colLen = resize(f.rowLen, m), resize(f.colLen, m)
	f.fnnz = 0
	f.etas, f.etaIdx, f.etaVal = f.etas[:0], f.etaIdx[:0], f.etaVal[:0]
}

// clearEtas empties the eta file, its arena and the per-slot index.
func (f *luFactor) clearEtas() {
	for _, i := range f.etaIdx {
		f.slotEtas[i] = f.slotEtas[i][:0]
	}
	for _, et := range f.etas {
		f.slotEtas[et.r] = f.slotEtas[et.r][:0]
	}
	f.etas, f.etaIdx, f.etaVal = f.etas[:0], f.etaIdx[:0], f.etaVal[:0]
}

func (f *luFactor) resetIdentity() {
	for k := 0; k < f.m; k++ {
		f.rowOf[k], f.slotOf[k] = int32(k), int32(k)
		f.posRow[k], f.posSlot[k] = int32(k), int32(k)
		f.uDiag[k] = 1
		f.lIdx[k], f.lVal[k] = f.lIdx[k][:0], f.lVal[k][:0]
		f.uIdx[k], f.uVal[k] = f.uIdx[k][:0], f.uVal[k][:0]
	}
	f.fnnz = f.m
	clear(f.utStart)
	clear(f.ltStart)
	f.clearEtas()
}

func (f *luFactor) setUnitRow(i int, sign float64) {
	f.uDiag[f.posRow[i]] = sign
}

// luMarkowitzThreshold rejects pivots smaller than this fraction of their
// column's largest entry, trading a little fill-in for stability.
const luMarkowitzThreshold = 0.01

// refactorize computes a fresh LU factorization of the current basis and
// clears the eta file.
func (f *luFactor) refactorize() error {
	m := f.m
	s := f.s

	// Active-submatrix working copies, columns indexed by basis slot.
	// Columns stay compact (entries of eliminated rows are removed as the
	// rows go), so colRow[s] always lists exactly the active entries.
	colRow, colVal := f.colRow, f.colVal
	rowLen, colLen := f.rowLen, f.colLen
	clear(rowLen)
	for i := 0; i < m; i++ {
		cr, cv := colRow[i][:0], colVal[i][:0]
		for _, e := range s.cols[s.basis[i]] {
			cr = append(cr, int32(e.row))
			cv = append(cv, e.coef)
			rowLen[e.row]++
		}
		colRow[i], colVal[i] = cr, cv
		colLen[i] = len(cr)
	}
	// rowSlot[r] lists the slots that ever held an entry in row r; slots
	// already eliminated are skipped on use (entries only disappear when
	// their row or column is eliminated, so no stale active slots occur).
	rowSlot := f.rowSlot
	for r := 0; r < m; r++ {
		rowSlot[r] = rowSlot[r][:0]
	}
	for sl := 0; sl < m; sl++ {
		for _, r := range colRow[sl] {
			rowSlot[r] = append(rowSlot[r], int32(sl))
		}
	}

	for k := 0; k < m; k++ {
		f.posRow[k], f.posSlot[k] = -1, -1
	}
	// uSlot holds U entries by original slot; remapped to steps at the end.
	uSlot := f.uSlot

	colQ, rowQ := f.colQ[:0], f.rowQ[:0]
	for sl := 0; sl < m; sl++ {
		if colLen[sl] == 1 {
			colQ = append(colQ, int32(sl))
		}
	}
	for r := 0; r < m; r++ {
		if rowLen[r] == 1 {
			rowQ = append(rowQ, int32(r))
		}
	}

	f.fnnz = m
	for k := 0; k < m; k++ {
		pr, pc := int32(-1), int32(-1)
		// Singleton column: pivoting on it adds no L entries and no fill.
		for pc < 0 && len(colQ) > 0 {
			c := colQ[len(colQ)-1]
			colQ = colQ[:len(colQ)-1]
			if f.posSlot[c] < 0 && colLen[c] == 1 {
				pr, pc = colRow[c][0], c
			}
		}
		// Singleton row: one multiplier column, no fill.
		for pc < 0 && len(rowQ) > 0 {
			r := rowQ[len(rowQ)-1]
			rowQ = rowQ[:len(rowQ)-1]
			if f.posRow[r] >= 0 || rowLen[r] != 1 {
				continue
			}
			for _, sl := range rowSlot[r] {
				if f.posSlot[sl] >= 0 {
					continue
				}
				for _, rr := range colRow[sl] {
					if rr == r {
						pr, pc = r, sl
						break
					}
				}
				if pc >= 0 {
					break
				}
			}
		}
		// Markowitz on the bump: minimize (rowLen−1)(colLen−1) over
		// entries that pass the threshold test against their column max;
		// ties prefer the larger magnitude. The scan order is fixed, so
		// pivot choice is deterministic.
		if pc < 0 {
			bestMC := int64(math.MaxInt64)
			bestAbs := 0.0
			for sl := 0; sl < m; sl++ {
				if f.posSlot[sl] >= 0 {
					continue
				}
				cmax := 0.0
				for _, v := range colVal[sl] {
					if av := math.Abs(v); av > cmax {
						cmax = av
					}
				}
				if cmax < 1e-12 {
					continue
				}
				floor := luMarkowitzThreshold * cmax
				for idx, r := range colRow[sl] {
					av := math.Abs(colVal[sl][idx])
					if av < floor || av < 1e-12 {
						continue
					}
					mc := int64(rowLen[r]-1) * int64(colLen[sl]-1)
					if mc < bestMC || (mc == bestMC && av > bestAbs) {
						bestMC, bestAbs = mc, av
						pr, pc = r, int32(sl)
					}
				}
			}
			if pc < 0 {
				return fmt.Errorf("lp: singular basis during refactorisation (step %d of %d)", k, m)
			}
		}

		// Collect the pivot value and the L multipliers from column pc.
		piv := 0.0
		for idx, r := range colRow[pc] {
			if r == pr {
				piv = colVal[pc][idx]
				break
			}
		}
		if math.Abs(piv) < 1e-12 {
			return fmt.Errorf("lp: singular basis during refactorisation (step %d of %d)", k, m)
		}
		li, lv := f.lIdx[k][:0], f.lVal[k][:0]
		for idx, r := range colRow[pc] {
			if r == pr {
				continue
			}
			li = append(li, r)
			lv = append(lv, colVal[pc][idx]/piv)
		}
		// Collect the U row from the other active entries of row pr,
		// removing them from their columns (row pr leaves the bump).
		ui, uv := uSlot[k][:0], f.uVal[k][:0]
		for _, sl := range rowSlot[pr] {
			if sl == pc || f.posSlot[sl] >= 0 {
				continue
			}
			for idx, r := range colRow[sl] {
				if r != pr {
					continue
				}
				ui = append(ui, sl)
				uv = append(uv, colVal[sl][idx])
				last := len(colRow[sl]) - 1
				colRow[sl][idx], colVal[sl][idx] = colRow[sl][last], colVal[sl][last]
				colRow[sl], colVal[sl] = colRow[sl][:last], colVal[sl][:last]
				colLen[sl]--
				if colLen[sl] == 1 {
					colQ = append(colQ, sl)
				}
				break
			}
		}
		f.posRow[pr], f.posSlot[pc] = int32(k), int32(k)
		f.rowOf[k], f.slotOf[k] = pr, pc
		f.uDiag[k] = piv
		f.lIdx[k], f.lVal[k] = li, lv
		uSlot[k], f.uVal[k] = ui, uv
		f.fnnz += len(li) + len(ui)
		// Retire column pc.
		for _, r := range colRow[pc] {
			if r == pr {
				continue
			}
			rowLen[r]--
			if rowLen[r] == 1 {
				rowQ = append(rowQ, r)
			}
		}
		colRow[pc], colVal[pc] = colRow[pc][:0], colVal[pc][:0]
		// Schur update: a[r][sl] -= mult · u for every (multiplier row,
		// U entry) pair, creating fill-in where no entry existed.
		for lidx, r := range li {
			mult := lv[lidx]
			for uidx, sl := range ui {
				delta := mult * f.uVal[k][uidx]
				found := false
				for idx, rr := range colRow[sl] {
					if rr == r {
						colVal[sl][idx] -= delta
						found = true
						break
					}
				}
				if !found {
					colRow[sl] = append(colRow[sl], r)
					colVal[sl] = append(colVal[sl], -delta)
					colLen[sl]++
					rowLen[r]++
					rowSlot[r] = append(rowSlot[r], sl)
				}
			}
		}
	}

	// Remap U entries from slot indices to step indices.
	for k := 0; k < m; k++ {
		mapped := f.uIdx[k][:0]
		for _, sl := range uSlot[k] {
			mapped = append(mapped, f.posSlot[sl])
		}
		f.uIdx[k] = mapped
	}
	f.colQ, f.rowQ = colQ, rowQ
	f.utIdx, f.utVal = transpose(f.utStart, f.utIdx, f.utVal, f.uIdx, f.uVal, nil)
	f.ltIdx, _ = transpose(f.ltStart, f.ltIdx, nil, f.lIdx, nil, f.posRow)
	f.clearEtas()
	return nil
}

// transpose fills start (length m+1) and returns idx as the compressed
// transpose of the per-step lists adj: step k is listed under every step
// its list names — through pos when adj holds rows rather than steps —
// in ascending order of k. When adjVal holds the lists' values, val
// returns them beside idx.
func transpose(start, idx []int32, val []float64, adj [][]int32, adjVal [][]float64, pos []int32) ([]int32, []float64) {
	m := len(adj)
	clear(start)
	n := 0
	for _, a := range adj {
		for _, j := range a {
			if pos != nil {
				j = pos[j]
			}
			start[j+1]++
		}
		n += len(a)
	}
	for j := 0; j < m; j++ {
		start[j+1] += start[j]
	}
	idx = resize(idx, n)
	if adjVal != nil {
		val = resize(val, n)
	}
	// Fill with start[j] as list j's cursor, then shift the cursors (now
	// list ends) back into list starts.
	for k, a := range adj {
		for q, j := range a {
			if pos != nil {
				j = pos[j]
			}
			idx[start[j]] = int32(k)
			if adjVal != nil {
				val[start[j]] = adjVal[k][q]
			}
			start[j]++
		}
	}
	copy(start[1:], start[:m])
	start[0] = 0
	return idx, val
}

// solveLU runs the triangular solves for B x = v: v is a row-space vector
// (destroyed), out receives the slot-space solution, and the eta file is
// applied oldest first.
func (f *luFactor) solveLU(v, out []float64) {
	m := f.m
	z := f.stepv
	// Forward: L z = Pv. Zero skips exploit sparse right-hand sides.
	for k := 0; k < m; k++ {
		t := v[f.rowOf[k]]
		if t != 0 {
			li, lv := f.lIdx[k], f.lVal[k]
			for idx, r := range li {
				v[r] -= lv[idx] * t
			}
		}
		z[k] = t
	}
	// Backward: U x' = z (step space).
	for k := m - 1; k >= 0; k-- {
		acc := z[k]
		ui, uv := f.uIdx[k], f.uVal[k]
		for idx, j := range ui {
			acc -= uv[idx] * z[j]
		}
		z[k] = acc / f.uDiag[k]
	}
	for k := 0; k < m; k++ {
		out[f.slotOf[k]] = z[k]
	}
	// Product-form updates, oldest first.
	for e := range f.etas {
		et := &f.etas[e]
		t := out[et.r] / et.wr
		if t != 0 {
			val := f.etaVal[et.lo:et.hi]
			for idx, i := range f.etaIdx[et.lo:et.hi] {
				out[i] -= val[idx] * t
			}
		}
		out[et.r] = t
	}
}

// ftranCol computes B⁻¹ A_col by solveLU's arithmetic restricted to the
// steps the column reaches: the L steps reachable from its rows, applied
// ascending; the U steps reachable from their nonzeros through Uᵀ,
// applied descending; then the etas, oldest first. It returns the image
// and its nonzero slots, ascending, both valid until the next ftranCol.
func (f *luFactor) ftranCol(col []nz) ([]float64, []int32) {
	out := f.w
	for _, i := range f.wSet {
		out[i] = 0
	}
	v, z, seen := f.sv, f.sz, f.seen
	// Forward: L z = Pv over the steps the column's rows reach.
	lr := f.reachA[:0]
	for _, e := range col {
		v[e.row] += e.coef
		if k := f.posRow[e.row]; !seen[k] {
			seen[k] = true
			lr = append(lr, k)
		}
	}
	for q := 0; q < len(lr); q++ {
		li := f.lIdx[lr[q]]
		f.touched += 1 + len(li)
		for _, r := range li {
			if p := f.posRow[r]; !seen[p] {
				seen[p] = true
				lr = append(lr, p)
			}
		}
	}
	slices.Sort(lr)
	ur := f.reachB[:0]
	for _, k := range lr {
		seen[k] = false
		r := f.rowOf[k]
		t := v[r]
		v[r] = 0 // no later step writes row r: it is pivoted here
		if t != 0 {
			li, lv := f.lIdx[k], f.lVal[k]
			f.touched += len(li)
			for idx, r := range li {
				v[r] -= lv[idx] * t
			}
			z[k] = t
			seen[k] = true
			ur = append(ur, k)
		}
	}
	// Backward: U x' = z over the steps the nonzeros of z reach in Uᵀ.
	for q := 0; q < len(ur); q++ {
		j := ur[q]
		ut := f.utIdx[f.utStart[j]:f.utStart[j+1]]
		f.touched += 1 + len(ut)
		for _, k := range ut {
			if !seen[k] {
				seen[k] = true
				ur = append(ur, k)
			}
		}
	}
	slices.Sort(ur)
	for q := len(ur) - 1; q >= 0; q-- {
		k := ur[q]
		seen[k] = false
		acc := z[k]
		ui, uv := f.uIdx[k], f.uVal[k]
		f.touched += len(ui)
		for idx, j := range ui {
			acc -= uv[idx] * z[j]
		}
		z[k] = acc / f.uDiag[k]
	}
	ws := f.wSet[:0]
	for _, k := range ur {
		i := f.slotOf[k]
		out[i], z[k] = z[k], 0
		f.smark[i] = true
		ws = append(ws, i)
	}
	// Product-form updates, oldest first. An eta whose pivot slot is zero
	// would only rewrite that zero.
	f.touched += len(f.etas)
	for e := range f.etas {
		et := &f.etas[e]
		x := out[et.r]
		if x == 0 {
			continue
		}
		t := x / et.wr
		if t != 0 {
			val := f.etaVal[et.lo:et.hi]
			f.touched += len(val)
			for idx, i := range f.etaIdx[et.lo:et.hi] {
				out[i] -= val[idx] * t
				if !f.smark[i] {
					f.smark[i] = true
					ws = append(ws, i)
				}
			}
		}
		out[et.r] = t
	}
	f.reachA, f.reachB = lr, ur
	f.wSet, f.wNZ = f.nonzeros(out, ws, f.wNZ)
	return out, f.wNZ
}

// nonzeros sorts the written indices set and unmarks them, and returns
// set with nz refilled with those whose value in vec is nonzero.
func (f *luFactor) nonzeros(vec []float64, set, nz []int32) ([]int32, []int32) {
	slices.Sort(set)
	nz = nz[:0]
	for _, i := range set {
		f.smark[i] = false
		if vec[i] != 0 {
			nz = append(nz, i)
		}
	}
	return set, nz
}

func (f *luFactor) ftranVec(v, out []float64) {
	copy(f.work, v)
	f.solveLU(f.work, out)
}

// btran solves yᵀB = cᵀ for the slot-space basic costs c into y, by a
// sweep: the etas newest first, then Uᵀ forward, then Lᵀ backward.
func (f *luFactor) btran(c, y []float64) {
	m := f.m
	buf := f.work
	copy(buf, c)
	for e := len(f.etas) - 1; e >= 0; e-- {
		et := &f.etas[e]
		sum := 0.0
		val := f.etaVal[et.lo:et.hi]
		for idx, i := range f.etaIdx[et.lo:et.hi] {
			sum += buf[i] * val[idx]
		}
		buf[et.r] = (buf[et.r] - sum) / et.wr
	}
	// Uᵀ t = ĉ with ĉ[k] = buf[slotOf[k]], solved forward with scattering.
	t := f.stepv
	for k := 0; k < m; k++ {
		t[k] = buf[f.slotOf[k]]
	}
	for k := 0; k < m; k++ {
		tk := t[k] / f.uDiag[k]
		t[k] = tk
		if tk != 0 {
			ui, uv := f.uIdx[k], f.uVal[k]
			for idx, j := range ui {
				t[j] -= uv[idx] * tk
			}
		}
	}
	// Lᵀ y = t, backward; rows pivoted later are already solved.
	for k := m - 1; k >= 0; k-- {
		a := t[k]
		li, lv := f.lIdx[k], f.lVal[k]
		for idx, r := range li {
			a -= lv[idx] * y[r]
		}
		y[f.rowOf[k]] = a
	}
}

// pivotRow computes row i of B⁻¹ by btran's arithmetic on e_i
// restricted to what e_i reaches: the etas holding a nonzero slot, newest
// first, found through slotEtas; the Uᵀ steps the nonzero slots reach,
// ascending; and the Lᵀ steps those reach, descending. It returns the row
// and its nonzero rows, ascending, both valid until the next pivotRow.
func (f *luFactor) pivotRow(i int) ([]float64, []int32) {
	out := f.prow
	for _, r := range f.pSet {
		out[r] = 0
	}
	b, t, seen := f.sb, f.sz, f.seen
	b[i] = 1
	f.smark[i] = true
	slots := append(f.slots[:0], int32(i))
	heap := f.pushEtas(f.etaHeap[:0], i, len(f.etas))
	for len(heap) > 0 {
		var e int32
		e, heap = popMax(heap)
		f.etaIn[e] = false
		et := &f.etas[e]
		sum := 0.0
		val := f.etaVal[et.lo:et.hi]
		f.touched += 1 + len(val)
		for idx, j := range f.etaIdx[et.lo:et.hi] {
			sum += b[j] * val[idx]
		}
		x := b[et.r]
		b[et.r] = (x - sum) / et.wr
		if !f.smark[et.r] {
			f.smark[et.r] = true
			slots = append(slots, et.r)
		}
		if x == 0 && b[et.r] != 0 {
			heap = f.pushEtas(heap, int(et.r), int(e))
		}
	}
	f.slots, f.etaHeap = slots, heap
	// Uᵀ t = ĉ, forward with scattering, over the steps ĉ's nonzeros reach.
	ur := f.reachA[:0]
	for _, sl := range slots {
		f.smark[sl] = false
		if x := b[sl]; x != 0 {
			k := f.posSlot[sl]
			t[k] = x
			seen[k] = true
			ur = append(ur, k)
		}
		b[sl] = 0
	}
	for q := 0; q < len(ur); q++ {
		ui := f.uIdx[ur[q]]
		f.touched += 1 + len(ui)
		for _, j := range ui {
			if !seen[j] {
				seen[j] = true
				ur = append(ur, j)
			}
		}
	}
	slices.Sort(ur)
	lr := f.reachB[:0]
	for _, k := range ur {
		seen[k] = false
		tk := t[k] / f.uDiag[k]
		t[k] = tk
		if tk != 0 {
			ui, uv := f.uIdx[k], f.uVal[k]
			f.touched += len(ui)
			for idx, j := range ui {
				t[j] -= uv[idx] * tk
			}
			seen[k] = true
			lr = append(lr, k)
		}
	}
	// Lᵀ y = t, backward, over the steps t's nonzeros reach in Lᵀ.
	for q := 0; q < len(lr); q++ {
		p := lr[q]
		lt := f.ltIdx[f.ltStart[p]:f.ltStart[p+1]]
		f.touched += 1 + len(lt)
		for _, k := range lt {
			if !seen[k] {
				seen[k] = true
				lr = append(lr, k)
			}
		}
	}
	slices.Sort(lr)
	ps := f.pSet[:0]
	for q := len(lr) - 1; q >= 0; q-- {
		k := lr[q]
		seen[k] = false
		a := t[k]
		li, lv := f.lIdx[k], f.lVal[k]
		f.touched += len(li)
		for idx, r := range li {
			a -= lv[idx] * out[r]
		}
		r := f.rowOf[k]
		out[r] = a
		f.smark[r] = true // rows now: every slot mark was cleared above
		ps = append(ps, r)
	}
	for _, k := range ur {
		t[k] = 0
	}
	f.reachA, f.reachB = ur, lr
	f.pSet, f.pNZ = f.nonzeros(out, ps, f.pNZ)
	return out, f.pNZ
}

// pushEtas pushes onto heap every eta older than below that holds slot i
// and is not on it already.
func (f *luFactor) pushEtas(heap []int32, i, below int) []int32 {
	for _, e := range f.slotEtas[i] {
		if int(e) >= below {
			break
		}
		if !f.etaIn[e] {
			f.etaIn[e] = true
			heap = pushMax(heap, e)
		}
	}
	return heap
}

// pushMax and popMax keep h a binary max-heap.
func pushMax(h []int32, e int32) []int32 {
	h = append(h, e)
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if h[p] >= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
	return h
}

func popMax(h []int32) (int32, []int32) {
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for p := 0; ; {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] > h[c] {
			c++
		}
		if h[p] >= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	return top, h
}

// update appends the eta of a pivot in slot leaving whose entering column
// has the FTRAN image w, nonzero at the slots nzs (ascending).
func (f *luFactor) update(w []float64, nzs []int32, leaving int) {
	e := int32(len(f.etas))
	lo := len(f.etaIdx)
	for _, i := range nzs {
		if int(i) != leaving {
			f.etaIdx = append(f.etaIdx, i)
			f.etaVal = append(f.etaVal, w[i])
			f.slotEtas[i] = append(f.slotEtas[i], e)
		}
	}
	f.slotEtas[leaving] = append(f.slotEtas[leaving], e)
	f.etas = append(f.etas, luEta{r: int32(leaving), wr: w[leaving], lo: lo, hi: len(f.etaIdx)})
	if len(f.etaIn) < len(f.etas) {
		f.etaIn = append(f.etaIn, false)
	}
}

// needsRefactor bounds the eta file: once applying the etas costs more
// than a couple of fresh triangular solves, refactorizing wins. The
// absolute cap matches the dense path's drift bound. The eta file holds
// one nonzero per eta beside those in the arena: its pivot entry w[r].
func (f *luFactor) needsRefactor(since int) bool {
	return since >= 256 || len(f.etaIdx)+len(f.etas) > 4*f.fnnz+2*f.m
}

func (f *luFactor) nnz() int { return f.fnnz }
