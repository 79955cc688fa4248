package lp

import (
	"math"
	"time"
)

// iterateDual runs bounded-variable dual-simplex pivots until the basic
// values are primal feasible again. It is the repair path for a warm-start
// basis invalidated only by right-hand-side or bound drift: such a basis
// stays dual feasible (reduced costs depend on costs and the basis, not on
// b), so each pivot can drive the most violated basic variable to its
// nearest bound while a dual ratio test picks the entering column that
// keeps every reduced cost on the right side of zero.
//
// repaired reports success: the state is primal feasible and the caller
// finishes with the ordinary primal iterate (normally zero or a handful of
// polishing pivots). When repaired is false the state is abandoned: st is
// IterLimit if the shared iteration budget ran out, and Infeasible for
// everything else — no eligible entering column, unsafe pivots on a fresh
// factorization, a degenerate stall, or a singular refactorization. The
// caller treats the latter as "fall back to the cold two-phase start"
// rather than declaring the problem infeasible, so a confused dual run can
// never produce a wrong answer, only a slower one.
func (s *simplexState) iterateDual(cost []float64) (repaired bool, st Status) {
	m := s.m
	tol := s.opts.Tol
	ftol := math.Max(1e-7, 100*tol)
	sinceRefactor := 0
	degen := 0
	for {
		if s.iter >= s.opts.MaxIters {
			return false, IterLimit
		}
		if degen > 2*m+200 {
			return false, Infeasible // stalled: let the cold path take over
		}
		if sinceRefactor > 0 && s.factor.needsRefactor(sinceRefactor) {
			if err := s.refactorize(); err != nil {
				return false, Infeasible
			}
			sinceRefactor = 0
		}

		// Leaving row: the basic variable with the worst relative bound
		// violation. None within tolerance means the repair is done.
		r := -1
		worst := 0.0
		var target float64 // bound the leaving variable settles at
		var above bool     // true: basic value exceeds its upper bound
		for i := 0; i < m; i++ {
			bj := s.basis[i]
			scale := ftol * (1 + math.Abs(s.xB[i]))
			if v := s.xB[i] - s.upper[bj]; v > scale {
				if rel := v / (1 + math.Abs(s.upper[bj])); rel > worst {
					worst, r, target, above = rel, i, s.upper[bj], true
				}
			} else if v := s.lower[bj] - s.xB[i]; v > scale {
				if rel := v / (1 + math.Abs(s.lower[bj])); rel > worst {
					worst, r, target, above = rel, i, s.lower[bj], false
				}
			}
		}
		if r == -1 {
			return true, Optimal
		}

		s.computeDuals(cost)
		t0 := time.Now()
		prow := s.factor.pivotRow(r) // row r of B^{-1}
		s.btranNS += time.Since(t0)

		// Dual ratio test: among nonbasic columns whose movement direction
		// reduces the violation (α sign vs rest position), pick the one
		// with the smallest |d|/|α| so every other reduced cost stays dual
		// feasible after the pivot; ties prefer the larger |α| for
		// stability, then the lower index for determinism. Only a column
		// meeting a non-zero of the pivot row can have α ≠ 0, so those are
		// marked through the row index and the rest skipped, in index order.
		t0 = time.Now()
		e := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		s.touchPivotRow(prow)
		s.dirty = s.dirty[:0]
		for j := range s.cols {
			if !s.mark[j] {
				continue
			}
			s.mark[j] = false
			stj := s.status[j]
			if stj == basic {
				continue
			}
			if s.lower[j] == s.upper[j] && stj != atFree {
				continue // fixed column cannot move
			}
			alpha := 0.0
			for _, z := range s.cols[j] {
				alpha += prow[z.row] * z.coef
			}
			if math.Abs(alpha) <= 1e-9 {
				continue
			}
			// The entering variable moves by t (t ≥ 0 from a lower bound,
			// t ≤ 0 from an upper bound) and xB[r] changes by −α·t, which
			// must shrink the violation.
			eligible := false
			switch stj {
			case atLower:
				eligible = (above && alpha > 0) || (!above && alpha < 0)
			case atUpper:
				eligible = (above && alpha < 0) || (!above && alpha > 0)
			case atFree:
				eligible = true
			}
			if !eligible {
				continue
			}
			d := cost[j]
			for _, z := range s.cols[j] {
				d -= s.y[z.row] * z.coef
			}
			ratio := math.Abs(d) / math.Abs(alpha)
			switch {
			case ratio < bestRatio-1e-12:
				e, bestRatio, bestAlpha = j, ratio, alpha
			case ratio <= bestRatio+1e-12 && e >= 0 && math.Abs(alpha) > math.Abs(bestAlpha):
				e, bestRatio, bestAlpha = j, ratio, alpha
			}
		}
		s.pricingNS += time.Since(t0)
		if e == -1 {
			return false, Infeasible
		}

		t0 = time.Now()
		s.factor.ftranCol(s.cols[e], s.w)
		s.ftranNS += time.Since(t0)
		piv := s.w[r]
		if math.Abs(piv) < 1e-11 {
			if sinceRefactor > 0 {
				if err := s.refactorize(); err != nil {
					return false, Infeasible
				}
				sinceRefactor = 0
				continue
			}
			return false, Infeasible
		}

		tmove := (s.xB[r] - target) / piv
		if math.Abs(tmove) <= tol {
			degen++
		} else {
			degen = 0
		}
		s.iter++
		s.dualIt++

		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			s.xB[i] -= s.w[i] * tmove
		}
		out := s.basis[r]
		if above {
			s.status[out], s.value[out] = atUpper, s.upper[out]
		} else {
			s.status[out], s.value[out] = atLower, s.lower[out]
		}
		enterVal := s.value[e] + tmove
		if s.status[e] == atFree {
			enterVal = tmove
		}
		s.basis[r] = e
		s.status[e] = basic
		s.xB[r] = enterVal
		if s.opts.RecordPivots {
			s.pivots = append(s.pivots, Pivot{Entering: int32(e), Leaving: int32(out)})
		}

		t0 = time.Now()
		s.factor.update(s.w, r)
		s.factorNS += time.Since(t0)
		sinceRefactor++
	}
}
