package lp

// factorizer is the representation of the basis inverse B⁻¹ that the
// revised simplex works against. luFactor — a sparse LU factorization with
// product-form eta updates — is the only one the solver ships; the
// interface is the seam where tests install the explicit dense inverse
// (denseFactor, factor_test.go) to cross-check it.
//
// Vector spaces: "row space" indexes constraint rows, "slot space" indexes
// basis positions (s.basis[i] is the column basic in slot i). FTRAN maps a
// row-space vector v to the slot-space solution of B x = v; BTRAN maps a
// slot-space vector c to the row-space solution of yᵀB = cᵀ.
type factorizer interface {
	// refactorize rebuilds the factorization from the current basis
	// columns. It fails when the basis is (numerically) singular.
	refactorize() error
	// resetIdentity installs the exact all-slack basis B = I without a
	// refactorization. Only valid when every basis slot holds its own
	// row's slack column.
	resetIdentity()
	// setUnitRow records that the basis column in slot i is now ±e_i (a
	// phase-1 artificial). Only valid immediately after resetIdentity,
	// before any update.
	setUnitRow(i int, sign float64)
	// ftranCol returns B⁻¹ A_col for a sparse column, with the slots
	// where it is nonzero in ascending order. Both are valid until the
	// next ftranCol or refactorize; callers must treat them as read-only.
	ftranCol(col []nz) (w []float64, nzs []int32)
	// ftranVec computes out = B⁻¹ v for a dense row-space vector.
	ftranVec(v, out []float64)
	// duals returns y = (cᵀ B⁻¹)ᵀ for the slot-space basic costs c, with
	// the rows where y differs bitwise from the last call's y, in
	// ascending order. changed lists the slots where c may differ from
	// the last call's c; nil means a new c throughout. Both results are
	// valid until the next duals; callers must treat them as read-only.
	duals(c []float64, changed []int32) (y []float64, rows []int32)
	// pivotRow returns row i of B⁻¹ (the BTRAN of e_i), with the rows
	// where it is nonzero in ascending order, valid until the next
	// pivotRow, update or refactorize; callers must treat both as
	// read-only.
	pivotRow(i int) (row []float64, nzs []int32)
	// update replaces the basis column in slot `leaving` by the entering
	// column whose FTRAN image is w (w = B⁻¹ A_enter), nonzero at nzs.
	update(w []float64, nzs []int32, leaving int)
	// needsRefactor reports whether the representation wants a rebuild
	// after `since` updates (eta growth and numerical drift).
	needsRefactor(since int) bool
	// nnz is the nonzero count of the current factorization, fill-in
	// included.
	nnz() int
}
