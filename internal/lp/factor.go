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
	// ftranCol computes out = B⁻¹ A_col for a sparse column.
	ftranCol(col []nz, out []float64)
	// ftranVec computes out = B⁻¹ v for a dense row-space vector.
	ftranVec(v, out []float64)
	// btran computes out = (cᵀ B⁻¹)ᵀ for a slot-space vector c. Zero
	// entries of c are skipped.
	btran(c, out []float64)
	// pivotRow returns row i of B⁻¹ (the BTRAN of e_i), valid until the
	// next update or refactorize; callers must treat it as read-only.
	pivotRow(i int) []float64
	// update replaces the basis column in slot `leaving` by the entering
	// column whose FTRAN image is w (w = B⁻¹ A_enter).
	update(w []float64, leaving int)
	// needsRefactor reports whether the representation wants a rebuild
	// after `since` updates (eta growth and numerical drift).
	needsRefactor(since int) bool
	// nnz is the nonzero count of the current factorization, fill-in
	// included.
	nnz() int
}
