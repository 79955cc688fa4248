package lp

// TranslateBasis remaps a basis across a problem edit that removed,
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
// the edited problem but not necessarily primal feasible at the new data:
// combine with Options.Dual so a dual-feasible survivor is repaired in a
// few pivots instead of being rejected.
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

// ExtendBasis translates a basis captured from a prefix of p — the same
// leading variables and rows, with columns and rows appended since — onto
// p's current dimensions. Appended rows start on their slack and appended
// columns at their default bound, so a basis that was primal feasible
// stays primal feasible whenever the appended rows hold at the old point
// (true for freshly generated column-generation rows, which only the new
// columns touch). This is the warm-start bridge between pricing rounds in
// SolveColGen. Returns nil if b is nil or not a prefix of p.
func (p *Problem) ExtendBasis(b *Basis) *Basis {
	if b == nil || b.NumVars > len(p.vars) || b.NumCons > len(p.cons) {
		return nil
	}
	varMap := make([]int, b.NumVars)
	for j := range varMap {
		varMap[j] = j
	}
	conMap := make([]int, b.NumCons)
	for i := range conMap {
		conMap[i] = i
	}
	return TranslateBasis(b, varMap, conMap, len(p.vars), len(p.cons))
}
