package lp

import (
	"fmt"
	"math"
)

// factorModes enumerates the basis representations for tests that must
// hold on both: the solver's sparse LU, and the dense inverse below
// installed through the unexported Options.factor hook.
var factorModes = []struct {
	name string
	mk   func(*simplexState) factorizer
}{
	{"lu", nil},
	{"dense", func(s *simplexState) factorizer { return newDenseFactor(s) }},
}

// denseFactor is the explicit dense basis inverse the solver originally
// shipped with, rebuilt by Gauss–Jordan elimination and updated by
// elementary row operations (O(m²) per pivot). It shares no code with
// luFactor, which makes it the cross-check for it: recovery_test.go, the
// pricing oracle and the /dense lines of testdata/pivots.golden run on it.
type denseFactor struct {
	s    *simplexState
	m    int
	binv []float64 // dense m×m basis inverse, row-major
	w    []float64 // ftranCol's result
	wnz  []int32   // its nonzeros
	pnz  []int32   // the nonzeros of pivotRow's result
}

func newDenseFactor(s *simplexState) *denseFactor {
	m := s.m
	return &denseFactor{s: s, m: m, binv: make([]float64, m*m), w: make([]float64, m)}
}

// nonzeroScan returns the indices where v is nonzero, ascending, in buf.
func nonzeroScan(v []float64, buf []int32) []int32 {
	buf = buf[:0]
	for i, x := range v {
		if x != 0 {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

// refactorize rebuilds the dense basis inverse from the basis columns by
// Gauss–Jordan elimination with partial pivoting.
func (f *denseFactor) refactorize() error {
	m := f.m
	s := f.s
	// Assemble B column-wise into a dense row-major matrix.
	a := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for _, e := range s.cols[s.basis[i]] {
			a[e.row*m+i] = e.coef
		}
	}
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for col := 0; col < m; col++ {
		// Partial pivot.
		piv, pmax := -1, 0.0
		for r := col; r < m; r++ {
			if v := math.Abs(a[r*m+col]); v > pmax {
				piv, pmax = r, v
			}
		}
		if piv < 0 || pmax < 1e-12 {
			return fmt.Errorf("lp: singular basis during refactorisation (row %d)", col)
		}
		if piv != col {
			for k := 0; k < m; k++ {
				a[col*m+k], a[piv*m+k] = a[piv*m+k], a[col*m+k]
				inv[col*m+k], inv[piv*m+k] = inv[piv*m+k], inv[col*m+k]
			}
		}
		d := a[col*m+col]
		for k := 0; k < m; k++ {
			a[col*m+k] /= d
			inv[col*m+k] /= d
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := a[r*m+col]
			if f == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				a[r*m+k] -= f * a[col*m+k]
				inv[r*m+k] -= f * inv[col*m+k]
			}
		}
	}
	f.binv = inv
	return nil
}

func (f *denseFactor) resetIdentity() {
	m := f.m
	for i := range f.binv {
		f.binv[i] = 0
	}
	for i := 0; i < m; i++ {
		f.binv[i*m+i] = 1
	}
}

func (f *denseFactor) setUnitRow(i int, sign float64) {
	m := f.m
	for k := 0; k < m; k++ {
		f.binv[i*m+k] = 0
	}
	f.binv[i*m+i] = sign
}

func (f *denseFactor) ftranCol(col []nz) ([]float64, []int32) {
	m := f.m
	out := f.w
	for i := 0; i < m; i++ {
		out[i] = 0
	}
	for _, e := range col {
		c := e.coef
		for i := 0; i < m; i++ {
			out[i] += f.binv[i*m+e.row] * c
		}
	}
	f.wnz = nonzeroScan(out, f.wnz)
	return out, f.wnz
}

func (f *denseFactor) ftranVec(v, out []float64) {
	m := f.m
	for i := 0; i < m; i++ {
		sum := 0.0
		row := f.binv[i*m : i*m+m]
		for k := 0; k < m; k++ {
			sum += row[k] * v[k]
		}
		out[i] = sum
	}
}

// btran sums the rows of B⁻¹ weighted by c, skipping zero entries of c.
func (f *denseFactor) btran(c, y []float64) {
	m := f.m
	clear(y)
	for i := 0; i < m; i++ {
		ci := c[i]
		if ci == 0 {
			continue
		}
		row := f.binv[i*m : i*m+m]
		for k := 0; k < m; k++ {
			y[k] += ci * row[k]
		}
	}
}

func (f *denseFactor) pivotRow(i int) ([]float64, []int32) {
	row := f.binv[i*f.m : i*f.m+f.m]
	f.pnz = nonzeroScan(row, f.pnz)
	return row, f.pnz
}

// update applies the elementary row transformation that moves B⁻¹ to the
// post-pivot basis: divide the pivot row by w[leaving], then eliminate the
// other rows.
func (f *denseFactor) update(w []float64, _ []int32, leaving int) {
	m := f.m
	prow := f.binv[leaving*m : leaving*m+m]
	inv := 1 / w[leaving]
	for k := 0; k < m; k++ {
		prow[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == leaving {
			continue
		}
		fi := w[i]
		if fi == 0 {
			continue
		}
		row := f.binv[i*m : i*m+m]
		for k := 0; k < m; k++ {
			row[k] -= fi * prow[k]
		}
	}
}

func (f *denseFactor) needsRefactor(since int) bool { return since >= 256 }

func (f *denseFactor) nnz() int { return f.m * f.m }
