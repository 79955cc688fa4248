package lp

import (
	"fmt"
	"math"
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

	etas   []luEta
	etaIdx []int32   // the arena every eta's nonzeros are carved from,
	etaVal []float64 // emptied with the eta file

	work  []float64 // row-space scratch
	stepv []float64 // step-space scratch
	prow  []float64 // pivotRow output buffer
	cbuf  []float64 // pivotRow unit-vector input buffer

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
	f.work, f.stepv = resize(f.work, m), resize(f.stepv, m)
	f.prow, f.cbuf = resize(f.prow, m), resize(f.cbuf, m)
	f.colRow, f.colVal = resize(f.colRow, m), resize(f.colVal, m)
	f.rowSlot, f.uSlot = resize(f.rowSlot, m), resize(f.uSlot, m)
	f.rowLen, f.colLen = resize(f.rowLen, m), resize(f.colLen, m)
	f.fnnz = 0
	f.clearEtas()
}

// clearEtas empties the eta file and its arena.
func (f *luFactor) clearEtas() {
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
	f.clearEtas()
	return nil
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

func (f *luFactor) ftranCol(col []nz, out []float64) {
	m := f.m
	v := f.work
	for i := 0; i < m; i++ {
		v[i] = 0
	}
	for _, e := range col {
		v[e.row] += e.coef
	}
	f.solveLU(v, out)
}

func (f *luFactor) ftranVec(v, out []float64) {
	copy(f.work, v)
	f.solveLU(f.work, out)
}

// btran solves yᵀ B = cᵀ: etas newest first, then Uᵀ forward, then Lᵀ
// backward, writing the row-space result into out.
func (f *luFactor) btran(c, out []float64) {
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
			a -= lv[idx] * out[r]
		}
		out[f.rowOf[k]] = a
	}
}

func (f *luFactor) pivotRow(i int) []float64 {
	for k := range f.cbuf {
		f.cbuf[k] = 0
	}
	f.cbuf[i] = 1
	f.btran(f.cbuf, f.prow)
	return f.prow
}

func (f *luFactor) update(w []float64, leaving int) {
	lo := len(f.etaIdx)
	for i, wi := range w {
		if wi != 0 && i != leaving {
			f.etaIdx = append(f.etaIdx, int32(i))
			f.etaVal = append(f.etaVal, wi)
		}
	}
	f.etas = append(f.etas, luEta{r: int32(leaving), wr: w[leaving], lo: lo, hi: len(f.etaIdx)})
}

// needsRefactor bounds the eta file: once applying the etas costs more
// than a couple of fresh triangular solves, refactorizing wins. The
// absolute cap matches the dense path's drift bound. The eta file holds
// one nonzero per eta beside those in the arena: its pivot entry w[r].
func (f *luFactor) needsRefactor(since int) bool {
	return since >= 256 || len(f.etaIdx)+len(f.etas) > 4*f.fnnz+2*f.m
}

func (f *luFactor) nnz() int { return f.fnnz }
