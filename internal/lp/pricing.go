package lp

import (
	"math"
	"time"
)

// Incremental pricing. The state caches, per column, the reduced cost
// d_j = c_j − yᵀa_j, the entering direction and the Devex score, and
// keeps them current pivot by pivot without solving for the duals y:
//
//   - A basis change with entering column q, pivot row r and pivot
//     α_rq moves every reduced cost by the textbook update
//     d_j −= θ_d·α_rj with θ_d = d_q/α_rq, where α_rj = ρ_r·a_j and ρ_r
//     is row r of the pre-pivot B⁻¹. Only a column meeting a non-zero of
//     ρ_r has α_rj ≠ 0, and the Devex update walks exactly those columns
//     already, so it updates d beside the weights. Then d_q = 0, and the
//     leaving column's d is −θ_d: the sign the pivot gave it, which keeps
//     it from re-entering on roundoff.
//   - A bound flip changes no reduced cost, only the column's status.
//   - A phase start, a refactorization and a Devex reset set priceAll:
//     the next pricing step solves for y once and recomputes every d_j
//     and score from it (freshPrices). The simplex reports Optimal only
//     on reduced costs fresh from a dual solve (iterate).
//
// A column's direction and score are recomputed only when its d, its
// status or its Devex weight may have changed: the queue of dirty
// columns. The entering column — highest score, ties to the lowest index
// — is therefore the one a scan of the cached scores would pick;
// TestPricingOracle checks that at every pricing step, and holds every
// cached d_j to c_j − yᵀa_j from a dual solve of its own.
//
// The choice itself does not rescan the cache either. The columns are
// cut into blocks of 64, and each block keeps its best column under the
// same rule. A new score updates its block's entry in O(1), except when
// the block's best column loses score: then the block is marked stale
// and rescanned at the next pick. The pick reads one entry per block.

// initPricing builds the row index over the structural columns and sizes
// the per-column cache for every column the solve can ever have (phase 1
// appends at most one artificial per row). Called once per solve.
func (s *simplexState) initPricing() {
	m := s.m
	s.rowStart = resize(s.rowStart, m+1)
	clear(s.rowStart)
	for _, col := range s.cols[:s.nStruct] {
		for _, e := range col {
			s.rowStart[e.row+1]++
		}
	}
	for i := 0; i < m; i++ {
		s.rowStart[i+1] += s.rowStart[i]
	}
	s.rowCol = resize(s.rowCol, int(s.rowStart[m]))
	// Fill with rowStart[i] as row i's cursor, then shift the cursors
	// (now row ends) back into row starts.
	for j, col := range s.cols[:s.nStruct] {
		for _, e := range col {
			s.rowCol[s.rowStart[e.row]] = int32(j)
			s.rowStart[e.row]++
		}
	}
	copy(s.rowStart[1:], s.rowStart[:m])
	s.rowStart[0] = 0

	n, ncap := len(s.cols), s.nStruct+2*m
	s.artOf = resize(s.artOf, m)
	clear(s.artOf)
	s.devex = resize(s.devex, ncap)[:n]
	s.d = resize(s.d, ncap)[:n]
	s.dir = resize(s.dir, ncap)[:n]
	s.score = resize(s.score, ncap)[:n]
	s.mark = resize(s.mark, ncap)
	clear(s.mark) // tryWarmStart borrows it as all-false scratch
	s.mark = s.mark[:n]
	s.dirty = resize(s.dirty, ncap)[:0]
	nb := (ncap + blockSize - 1) / blockSize
	s.blockBest = resize(s.blockBest, nb)
	s.blockVal = resize(s.blockVal, nb)
	s.stale = resize(s.stale, nb)
	s.staleList = resize(s.staleList, nb)[:0]
}

// blockSize is the number of columns one entry of the pick's index
// stands for; blockShift is its base-2 logarithm.
const (
	blockShift = 6
	blockSize  = 1 << blockShift
)

// resetPricing starts a phase: the cache grows to the current column
// count, the Devex reference framework is reset, and the new cost vector
// invalidates every cached entry.
func (s *simplexState) resetPricing() {
	n := len(s.cols)
	s.devex, s.d, s.dir, s.score, s.mark = s.devex[:n], s.d[:n], s.dir[:n], s.score[:n], s.mark[:n]
	for j := range s.devex {
		s.devex[j] = 1
	}
	nb := (n + blockSize - 1) / blockSize
	s.blockBest, s.blockVal, s.stale = s.blockBest[:nb], s.blockVal[:nb], s.stale[:nb]
	s.priceAll = true
}

// touch queues column j for repricing.
func (s *simplexState) touch(j int) {
	if !s.mark[j] {
		s.mark[j] = true
		s.dirty = append(s.dirty, int32(j))
	}
}

// touchRow queues every column with an entry in row i.
func (s *simplexState) touchRow(i int) {
	for _, j := range s.rowCol[s.rowStart[i]:s.rowStart[i+1]] {
		s.touch(int(j))
	}
	s.touch(s.nStruct + i)
	if a := s.artOf[i]; a != 0 {
		s.touch(int(a))
	}
}

// touchPivotRow queues every column that meets a row in nzs, the nonzeros
// of a row ρ of B⁻¹: the only columns whose α = ρ·A_j can be non-zero.
func (s *simplexState) touchPivotRow(nzs []int32) {
	for _, i := range nzs {
		s.touchRow(int(i))
	}
}

// freshPrices solves for the duals and recomputes every column's reduced
// cost from them, and queues every column for repricing.
func (s *simplexState) freshPrices(cost []float64) {
	s.priceAll = false
	s.computeDuals(cost)
	t0 := time.Now()
	for j, col := range s.cols {
		d := 0.0
		if s.status[j] != basic {
			d = cost[j]
			for _, e := range col {
				d -= s.y[e.row] * e.coef
			}
		}
		s.d[j] = d
		s.touch(j)
	}
	// Every score changes: rescan every block at the pick instead of
	// maintaining entries that are about to be rebuilt.
	s.staleList = s.staleList[:0]
	for b := range s.stale {
		s.stale[b] = true
		s.staleList = append(s.staleList, int32(b))
	}
	s.clock.since(phPricing, t0)
}

// refreshPrices reprices the queued columns.
func (s *simplexState) refreshPrices(cost []float64) {
	for _, j := range s.dirty {
		s.mark[j] = false
		dir, score := s.price(cost, int(j))
		s.dir[j] = dir
		s.setScore(int(j), score)
	}
	s.dirty = s.dirty[:0]
}

// price computes column j's entering direction and Devex score from its
// cached reduced cost.
func (s *simplexState) price(cost []float64, j int) (dir, score float64) {
	st := s.status[j]
	if st == basic {
		return 0, 0
	}
	if s.lower[j] == s.upper[j] && st != atFree {
		return 0, 0 // fixed column can never improve
	}
	d := s.d[j]
	// Dual feasibility is judged RELATIVE to the column's cost
	// magnitude: with mixed cost scales (the online model's fake
	// node is ~10⁴× the real prices), an absolute tolerance lets
	// cancellation noise on truly-zero reduced costs masquerade
	// as improving columns and the solver churns at the optimum.
	dtol := s.opts.tol * (1 + math.Abs(cost[j]))
	switch st {
	case atLower:
		if d < -dtol {
			dir = 1
		}
	case atUpper:
		if d > dtol {
			dir = -1
		}
	case atFree:
		if d < -dtol {
			dir = 1
		} else if d > dtol {
			dir = -1
		}
	}
	if dir != 0 {
		score = d * d / s.devex[j]
	}
	return dir, score
}

// setScore caches column j's score and keeps its block's entry: the
// block's highest score, ties to the lowest index, and -1 with score 0
// when no column of the block is eligible.
func (s *simplexState) setScore(j int, score float64) {
	old := s.score[j]
	s.score[j] = score
	b := j >> blockShift
	if s.stale[b] {
		return
	}
	switch best := int(s.blockBest[b]); {
	case best == j:
		if score >= old {
			s.blockVal[b] = score
		} else { // lost score (or NaN, which the scan never picks)
			s.stale[b] = true
			s.staleList = append(s.staleList, int32(b))
		}
	case score > s.blockVal[b] || (score == s.blockVal[b] && score > 0 && j < best):
		s.blockBest[b], s.blockVal[b] = int32(j), score
	}
}

// rescanBlock rebuilds block b's entry from the cached scores.
func (s *simplexState) rescanBlock(b int) {
	lo := b << blockShift
	hi := min(lo+blockSize, len(s.score))
	best, val := int32(-1), 0.0
	for j, sc := range s.score[lo:hi] {
		if sc > val {
			best, val = int32(lo+j), sc
		}
	}
	s.blockBest[b], s.blockVal[b], s.stale[b] = best, val, false
	s.pickReads += hi - lo
}

// pickEntering chooses the entering column: the highest Devex score, ties
// to the lowest index — read off the block entries, the blocks ascending
// and strict > keeping the first — or, under Bland's rule, the first
// eligible column. It returns -1 when no column can improve.
func (s *simplexState) pickEntering(useBland bool) (entering int, enterDir float64) {
	if useBland {
		for j, dir := range s.dir {
			if dir != 0 {
				return j, dir
			}
		}
		return -1, 0
	}
	for _, b := range s.staleList {
		s.rescanBlock(int(b))
	}
	s.staleList = s.staleList[:0]
	s.pickReads += len(s.blockVal)
	entering = -1
	best := 0.0
	for b, sc := range s.blockVal {
		if sc > best {
			entering, best = int(s.blockBest[b]), sc
		}
	}
	if entering < 0 {
		return -1, 0
	}
	return entering, s.dir[entering]
}

// updatePrices follows the basis change that swapped entering for outVar
// on pivot element pivot = α_rq, given the pivot row prowOld of the
// pre-pivot B⁻¹, nonzero at prowNZ: every column meeting a non-zero of that
// row — the only ones with α_rj ≠ 0 — gets d_j −= θ_d·α_rj and, when devex
// is set, the Forrest–Goldfarb reference-weight update. Those columns are
// left queued, so the next refresh rescores them.
func (s *simplexState) updatePrices(prowOld []float64, prowNZ []int32, pivot float64, entering, outVar int, devex bool) {
	thetaD := s.d[entering] / pivot
	wq := s.devex[entering]
	pivotSq := pivot * pivot
	s.touchPivotRow(prowNZ)
	for _, j := range s.dirty {
		if s.status[j] == basic { // entering is basic already
			continue
		}
		alpha := 0.0
		for _, e := range s.cols[j] {
			alpha += prowOld[e.row] * e.coef
		}
		if alpha == 0 {
			continue
		}
		s.d[j] -= thetaD * alpha
		if cand := (alpha * alpha / pivotSq) * wq; devex && cand > s.devex[j] {
			s.devex[j] = cand
		}
	}
	s.d[entering], s.d[outVar] = 0, -thetaD
	if !devex {
		return
	}
	lw := wq / pivotSq
	if lw < 1 {
		lw = 1
	}
	s.devex[outVar] = lw
	if lw > 1e12 {
		// Reference framework degraded: reset.
		for j := range s.devex {
			s.devex[j] = 1
		}
		s.priceAll = true
	}
}
