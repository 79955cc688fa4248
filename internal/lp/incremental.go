package lp

// ExtendBasis carries a basis captured from a prefix of p — the same
// leading variables and rows, with columns and rows appended since — onto
// p's current dimensions, in place, and returns it. Appended rows start on
// their slack and appended columns are marked BasisAuto, so the solver
// places them at their default bound: a basis that was primal feasible
// stays primal feasible whenever the appended rows hold at the old point
// (true for freshly generated column-generation rows, which only the new
// columns touch). This is the warm-start bridge between pricing rounds in
// SolveColGen, which extends each round's basis in the storage the next
// round's extracts into. Returns nil, leaving b alone, if b is nil, is not
// a prefix of p or names a column it does not have.
func (p *Problem) ExtendBasis(b *Basis) *Basis {
	nv, nc := len(p.vars), len(p.cons)
	if b == nil || b.NumVars > nv || b.NumCons > nc ||
		len(b.RowCol) != b.NumCons || len(b.ColStat) != b.NumVars+b.NumCons {
		return nil
	}
	ov, oc := b.NumVars, b.NumCons
	for _, j := range b.RowCol {
		if j < 0 || int(j) >= ov+oc {
			return nil
		}
	}
	// A slack's column index moves up by the appended variables; so do
	// the slacks' rest positions, behind the appended variables' marks.
	shift := int32(nv - ov)
	for i, j := range b.RowCol {
		if int(j) >= ov {
			b.RowCol[i] = j + shift
		}
	}
	b.RowCol = resize(b.RowCol, nc)
	for i := oc; i < nc; i++ {
		b.RowCol[i] = int32(nv + i)
	}
	cs := resize(b.ColStat, nv+nc)
	copy(cs[nv:nv+oc], cs[ov:ov+oc])
	for j := ov; j < nv; j++ {
		cs[j] = BasisAuto
	}
	for j := nv + oc; j < nv+nc; j++ {
		cs[j] = BasisAuto
	}
	b.NumVars, b.NumCons, b.ColStat = nv, nc, cs
	return b
}
