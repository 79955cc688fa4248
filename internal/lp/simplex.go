package lp

import (
	"math"
	"sync"
	"time"
)

// Solve runs the two-phase bounded-variable revised simplex method and
// returns the solution. The receiver is not modified and may be reused.
//
// The method maintains a sparse LU factorization of the basis (Markowitz
// pivot ordering, product-form eta updates, periodic refactorisation from
// scratch to bound eta growth and numerical drift). Upper bounds are
// honoured by the bounded-variable pivoting rule — including bound flips
// — so no extra rows are created for them. Infeasibility of the initial
// slack basis is repaired by per-row artificial variables minimised in
// phase 1.
//
// The working state is borrowed from statePool and returned when solve
// returns, so a process that solves every epoch allocates little beyond
// the Solution it hands back. A factorizer installed by a test is never
// pooled.
func (p *Problem) Solve(opts Options) (*Solution, error) {
	sol := new(Solution)
	if err := p.solve(opts, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// solve is Solve into sol. It sets every field of sol, and writes X, Dual
// and the basis into the storage sol already has, so a caller that keeps
// one Solution across solves (SolveColGen's rounds) allocates none of
// them once it has grown to size.
func (p *Problem) solve(opts Options, sol *Solution) error {
	m := len(p.cons)
	n := len(p.vars)
	opts = opts.withDefaults(m, n)
	sol.reset()
	if m == 0 {
		p.solveUnconstrained(sol)
		return nil
	}
	if opts.factor != nil {
		return newSimplexState(p, opts).run(sol)
	}
	s := statePool.Get().(*simplexState)
	defer s.release()
	s.init(p, opts)
	return s.run(sol)
}

// statePool holds idle simplex workspaces. A pool rather than a field of
// the caller: a busy process reuses one every solve, and an idle one keeps
// nothing past two garbage collections.
var statePool = sync.Pool{New: func() any { return new(simplexState) }}

// release drops everything that belongs to the finished solve — the
// problem, its column slices, the options and the pivot list the Solution
// now owns — and returns the workspace to the pool.
func (s *simplexState) release() {
	clear(s.cols)
	*s = simplexState{workspace: s.workspace}
	statePool.Put(s)
}

// resize returns buf with length n, reusing its backing array when that is
// large enough. Entries are not cleared: whatever a solve reads, it sets
// first. Existing entries survive a grow, so a slice of slices keeps every
// inner slice's capacity.
func resize[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return append(buf[:cap(buf)], make([]T, n-cap(buf))...)
}

// solveUnconstrained handles the degenerate case of no constraint rows:
// every variable independently moves to its cheaper bound.
func (p *Problem) solveUnconstrained(sol *Solution) {
	x := resize(sol.X, len(p.vars))
	for i := range p.vars {
		v := &p.vars[i]
		x[i] = 0
		switch {
		case v.cost > 0:
			if math.IsInf(v.lower, -1) {
				sol.Status = Unbounded
				return
			}
			x[i] = v.lower
		case v.cost < 0:
			if math.IsInf(v.upper, 1) {
				sol.Status = Unbounded
				return
			}
			x[i] = v.upper
		default:
			if !math.IsInf(v.lower, -1) {
				x[i] = v.lower
			} else if !math.IsInf(v.upper, 1) {
				x[i] = v.upper
			}
		}
		sol.Objective += v.cost * x[i]
	}
	sol.Status, sol.X = Optimal, x
}

// Column status in the simplex state.
const (
	atLower = iota
	atUpper
	atFree // nonbasic free variable pinned at zero
	basic
)

// simplexState is the working state of one solve. Columns are laid out as
// [structural | slack | artificial]. The scalars below are per solve; the
// embedded workspace holds every vector and outlives the solve.
type simplexState struct {
	p    *Problem
	opts Options

	m, nStruct, nSlack, nArt int

	factor factorizer // representation of B^{-1}: &lu unless a test installs its own

	iter     int
	p1it     int
	priceAll bool // duals, cost vector or reference framework reset: reprice everything
	degenRun int  // consecutive degenerate pivots (triggers Bland)

	warm      bool    // warm-start basis accepted
	pivots    []Pivot // recorded when opts.recordPivots; the Solution takes it
	clock     phaseClock
	nRefactor int
	pickReads int // cached scores the Devex picks read

	workspace
}

// workspace is every vector of a solve. init re-slices each one to the new
// problem's size, allocating only when capacity is short, and nothing
// relies on a fresh allocation's zeroes: every entry a solve reads it sets
// first.
type workspace struct {
	cols  [][]nz    // sparse column entries
	lower []float64 // per column
	upper []float64
	cost  []float64 // phase-2 (original) costs; slacks and artificials are 0
	b     []float64 // row right-hand sides, perturbed while iterating
	bOrig []float64 // the unperturbed right-hand sides

	slackNZ []nz      // backing array of the m unit slack columns
	artNZ   []nz      // backing array of the phase-1 artificial columns
	p1cost  []float64 // phase-1 costs: 1 on artificials, else 0

	status []int     // per column: atLower/atUpper/atFree/basic
	value  []float64 // current value of each NONBASIC column (bound or 0)
	basis  []int     // column index of the basic variable in each row
	xB     []float64 // value of the basic variable in each row
	lu     luFactor

	// scratch
	cb    []float64 // slot-space basic costs handed to the dual solve
	y     []float64 // the duals c_Bᵀ B⁻¹ of the last dual solve
	rhs   []float64 // b − N x_N, the right-hand side of computeXB
	devex []float64 // Devex reference weights, one per column

	// Incremental pricing (pricing.go): a row-major (CSR) index of the
	// structural columns — a row's slack and phase-1 artificial are single
	// implied entries — and per column the reduced cost, the cached
	// entering direction and Devex score, with the queue of columns whose
	// entry is stale.
	rowStart []int32 // row i meets structurals rowCol[rowStart[i]:rowStart[i+1]]
	rowCol   []int32
	artOf    []int32   // artificial column of row i, 0 for none
	d        []float64 // reduced cost c_j − yᵀa_j, updated pivot by pivot; 0 on basic columns
	dir      []float64 // entering direction, 0 when the column cannot improve
	score    []float64 // d²/devex where dir ≠ 0, else 0
	dirty    []int32   // columns to reprice at the next refresh
	mark     []bool    // membership of dirty
	// The pick's index: per block of blockSize columns, the best column
	// (-1 for none) and its score, unless the block is stale.
	blockBest []int32
	blockVal  []float64
	stale     []bool
	staleList []int32 // the stale blocks, to rescan at the next pick
}

// newSimplexState returns a freshly allocated state sized for p: what a
// solve with a test's own factorizer runs on, and the reference a pooled
// workspace is checked against.
func newSimplexState(p *Problem, opts Options) *simplexState {
	s := new(simplexState)
	s.init(p, opts)
	return s
}

// init readies the state for one solve of p: every per-solve field starts
// from its zero value, and every vector is sized — with room for the at
// most one artificial column per row phase 1 appends — and filled with
// the problem's columns, bounds, costs and right-hand sides.
func (s *simplexState) init(p *Problem, opts Options) {
	m := len(p.cons)
	n := len(p.vars)
	*s = simplexState{p: p, opts: opts, m: m, nStruct: n, nSlack: m, workspace: s.workspace}
	total, ncap := n+m, n+2*m
	s.cols = resize(s.cols, ncap)[:total]
	s.lower = resize(s.lower, ncap)[:total]
	s.upper = resize(s.upper, ncap)[:total]
	s.cost = resize(s.cost, ncap)[:total]
	s.status = resize(s.status, ncap)[:total]
	s.value = resize(s.value, ncap)[:total]
	s.b = resize(s.b, m)
	s.bOrig = resize(s.bOrig, m)
	s.slackNZ = resize(s.slackNZ, m)
	s.artNZ = resize(s.artNZ, m)
	for j := 0; j < n; j++ {
		v := &p.vars[j]
		s.cols[j] = v.col
		s.lower[j] = v.lower
		s.upper[j] = v.upper
		s.cost[j] = v.cost
	}
	for i := 0; i < m; i++ {
		c := &p.cons[i]
		s.b[i] = c.rhs
		sj := n + i
		s.slackNZ[i] = nz{row: i, coef: 1}
		s.cols[sj] = s.slackNZ[i : i+1 : i+1]
		s.cost[sj] = 0
		switch c.sense {
		case LE:
			s.lower[sj], s.upper[sj] = 0, Inf
		case GE:
			s.lower[sj], s.upper[sj] = math.Inf(-1), 0
		case EQ:
			s.lower[sj], s.upper[sj] = 0, 0
		}
	}
	s.basis = resize(s.basis, m)
	s.xB = resize(s.xB, m)
	s.cb = resize(s.cb, m)
	s.y = resize(s.y, m)
	s.rhs = resize(s.rhs, m)
	if opts.factor != nil {
		s.factor = opts.factor(s)
	} else {
		s.lu.init(s)
		s.factor = &s.lu
	}
	s.initPricing()
}

// nonbasicStart picks the starting bound for a nonbasic column and returns
// its value there.
func (s *simplexState) nonbasicStart(j int) (int, float64) {
	lo, hi := s.lower[j], s.upper[j]
	switch {
	case !math.IsInf(lo, -1):
		return atLower, lo
	case !math.IsInf(hi, 1):
		return atUpper, hi
	default:
		return atFree, 0
	}
}

// run solves into sol, which solve has reset.
func (s *simplexState) run(sol *Solution) error {
	m := s.m

	// Anti-degeneracy perturbation: scheduling LPs are massively
	// degenerate (symmetric machine groups, tied costs), which can stall
	// the simplex in long runs of zero-length pivots. A deterministic,
	// row-dependent relaxation of each right-hand side makes basic
	// solutions distinct; the original b is restored before extracting
	// the final answer, so the reported solution is exact up to the
	// usual tolerances.
	copy(s.bOrig, s.b)
	for i := 0; i < m; i++ {
		delta := 1e-8 * (1 + math.Abs(s.b[i])) * (0.5 + float64((i*2654435761)%1024)/1024)
		switch s.p.cons[i].sense {
		case GE:
			s.b[i] -= delta
		default: // LE and EQ relax upward
			s.b[i] += delta
		}
	}

	if ws := s.opts.WarmStart; ws != nil {
		s.warm = s.tryWarmStart(ws)
	}
	if !s.warm {
		s.coldStart()
		if done, err := s.phase1(sol); done {
			return err
		}
	}

	// Phase 2 with the original costs (phase 1 appended a zero for each
	// artificial).
	cost := s.cost
	st, err := s.iterate(cost)
	if err != nil {
		return err
	}
	sol.Status, sol.Stats, sol.WarmStarted, sol.Pivots = st, s.stats(), s.warm, s.pivots
	if st != Optimal {
		return nil
	}
	// Undo the anti-degeneracy perturbation: re-derive the basic values
	// from the original right-hand sides under the final (optimal) basis.
	// iterate reports Optimal only with no pivot since the basis was last
	// factorized, so the factorization is fresh.
	copy(s.b, s.bOrig)
	s.computeXB()
	sol.X = resize(sol.X, s.nStruct) // every entry is written below
	for j := 0; j < s.nStruct; j++ {
		if s.status[j] == basic {
			continue
		}
		sol.X[j] = s.value[j]
	}
	for i := 0; i < m; i++ {
		if bj := s.basis[i]; bj < s.nStruct {
			sol.X[bj] = s.xB[i]
		}
	}
	// Clamp roundoff back into the box so downstream consumers see
	// in-bounds values.
	for j := 0; j < s.nStruct; j++ {
		sol.X[j] = math.Min(math.Max(sol.X[j], s.lower[j]), s.upper[j])
	}
	sol.Objective = s.p.Objective(sol.X)
	s.computeDuals(cost)
	sol.Dual = append(sol.Dual, s.y...)
	if s.extractBasis(&sol.basis) {
		sol.Basis = &sol.basis
	}
	sol.Stats = s.stats() // the final refactorization and duals included
	return nil
}

// coldStart initializes the slack basis with structurals at their start
// bounds, then repairs any slack-bound violations with per-row artificial
// variables. It overwrites all of status/value/basis and resets the
// factorization, so it also serves as the fallback after a rejected warm
// start.
func (s *simplexState) coldStart() {
	m := s.m
	for j := 0; j < s.nStruct; j++ {
		s.status[j], s.value[j] = s.nonbasicStart(j)
	}
	for i := 0; i < m; i++ {
		s.basis[i] = s.nStruct + i
		s.status[s.nStruct+i] = basic
		s.value[s.nStruct+i] = 0
	}
	s.factor.resetIdentity()
	s.computeXB()
}

// phase1 repairs slack-basis infeasibility with artificials and minimises
// their sum. done reports that run should return err at once, with sol
// filled in: an iteration limit, infeasibility, or a numeric failure.
func (s *simplexState) phase1(sol *Solution) (done bool, err error) {
	m := s.m
	tol := s.opts.tol
	needPhase1 := false
	for i := 0; i < m; i++ {
		bj := s.basis[i]
		resid := 0.0
		switch {
		case s.xB[i] < s.lower[bj]-tol:
			resid = s.xB[i] - s.lower[bj] // negative
		case s.xB[i] > s.upper[bj]+tol:
			resid = s.xB[i] - s.upper[bj] // positive
		default:
			continue
		}
		needPhase1 = true
		// Pin the slack at the violated bound and let the artificial
		// absorb the residual: a·sign(resid) has value |resid| ≥ 0.
		if resid > 0 {
			s.value[bj] = s.upper[bj]
			s.status[bj] = atUpper
		} else {
			s.value[bj] = s.lower[bj]
			s.status[bj] = atLower
		}
		sign := 1.0
		if resid < 0 {
			sign = -1
		}
		aj := len(s.cols)
		s.artNZ[s.nArt] = nz{row: i, coef: sign}
		s.cols = append(s.cols, s.artNZ[s.nArt:s.nArt+1:s.nArt+1])
		s.lower = append(s.lower, 0)
		s.upper = append(s.upper, Inf)
		s.cost = append(s.cost, 0)
		s.status = append(s.status, basic)
		s.value = append(s.value, 0)
		s.nArt++
		s.artOf[i] = int32(aj)
		s.basis[i] = aj
		s.xB[i] = math.Abs(resid)
		// The artificial column is ±e_i, so row i of B^{-1} becomes
		// sign·e_i — an exact incremental fix on the fresh identity
		// factorization coldStart just installed.
		s.factor.setUnitRow(i, sign)
	}

	if !needPhase1 {
		return false, nil
	}
	// Phase 1: minimise the sum of artificials.
	s.p1cost = resize(s.p1cost, len(s.cols))
	p1cost := s.p1cost
	clear(p1cost[:s.nStruct+s.nSlack])
	for j := s.nStruct + s.nSlack; j < len(s.cols); j++ {
		p1cost[j] = 1
	}
	stat, err := s.iterate(p1cost)
	if err != nil {
		return true, err
	}
	s.p1it = s.iter
	if stat == IterLimit {
		sol.Status, sol.Stats = IterLimit, s.stats().itersOnly()
		return true, nil
	}
	infeas := 0.0
	for i := 0; i < m; i++ {
		if s.basis[i] >= s.nStruct+s.nSlack {
			infeas += s.xB[i]
		}
	}
	for j := s.nStruct + s.nSlack; j < len(s.cols); j++ {
		if s.status[j] != basic {
			infeas += s.value[j]
		}
	}
	if infeas > 1e-6 {
		// Attach the phase-1 duals: at this (phase-1 optimal) basis every
		// column's artificial-sum reduced cost is nonnegative, so the duals
		// are a Farkas-style certificate — and a column-generation oracle
		// can price against them to find columns that would shrink the
		// infeasibility (see Oracle).
		s.computeDuals(p1cost)
		sol.Status, sol.Stats = Infeasible, s.stats().itersOnly()
		sol.Dual = append(sol.Dual, s.y...)
		return true, nil
	}
	// Freeze artificials at zero for phase 2.
	for j := s.nStruct + s.nSlack; j < len(s.cols); j++ {
		s.upper[j] = 0
		if s.status[j] != basic {
			s.value[j] = 0
			s.status[j] = atLower
		}
	}
	return false, nil
}

// tryWarmStart seeds the state from a previous solve's basis and reports
// whether it was accepted. There is one rule: the basis must match the
// problem's dimensions, name a valid set of distinct columns, factorize,
// and be primal feasible under the current bounds and right-hand sides.
// Otherwise the caller starts cold through coldStart, which overwrites
// everything touched here.
//
// Between the solves a basis is offered to — the rounds of a column-
// generation loop, or two solves of one model — only bounds and RHS may
// drift, so nonbasic rest positions are remapped to the current bounds
// (a column recorded at an upper bound that is now infinite moves to its
// default start position). Columns marked BasisAuto — appended after the
// basis was captured and marked so by ExtendBasis — start at their
// default bound.
func (s *simplexState) tryWarmStart(ws *Basis) bool {
	m := s.m
	nb := s.nStruct + s.nSlack
	if ws.NumVars != s.nStruct || ws.NumCons != m ||
		len(ws.RowCol) != m || len(ws.ColStat) != nb {
		return false
	}
	seen := s.mark[:nb] // all false outside a refresh; left that way
	defer clear(seen)
	for i := 0; i < m; i++ {
		j := int(ws.RowCol[i])
		if j < 0 || j >= nb || seen[j] {
			return false
		}
		seen[j] = true
	}
	for j := 0; j < nb; j++ {
		if seen[j] {
			continue // basic: ColStat entries of basic columns are ignored
		}
		st := int(ws.ColStat[j])
		lo, hi := s.lower[j], s.upper[j]
		switch st {
		case atLower:
			if math.IsInf(lo, -1) {
				st, _ = s.nonbasicStart(j)
			}
		case atUpper:
			if math.IsInf(hi, 1) {
				st, _ = s.nonbasicStart(j)
			}
		case atFree:
			if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
				st, _ = s.nonbasicStart(j)
			}
		case int(BasisAuto):
			st, _ = s.nonbasicStart(j)
		default:
			return false
		}
		switch st {
		case atLower:
			s.status[j], s.value[j] = atLower, lo
		case atUpper:
			s.status[j], s.value[j] = atUpper, hi
		default:
			s.status[j], s.value[j] = atFree, 0
		}
	}
	for i := 0; i < m; i++ {
		j := int(ws.RowCol[i])
		s.basis[i] = j
		s.status[j] = basic
		s.value[j] = 0
	}
	if err := s.refactorize(); err != nil {
		return false
	}
	// Primal feasibility of the recomputed basic values. The acceptance
	// tolerance is looser than the pivot tolerance — small epoch-to-epoch
	// RHS drift lands here — because the ratio test tolerates (and
	// repairs) slightly out-of-bounds basic values.
	ftol := math.Max(1e-7, 100*s.opts.tol)
	for i := 0; i < m; i++ {
		bj := s.basis[i]
		scale := ftol * (1 + math.Abs(s.xB[i]))
		if s.xB[i] < s.lower[bj]-scale || s.xB[i] > s.upper[bj]+scale {
			return false
		}
	}
	return true
}

// extractBasis captures the final basis for Solution.Basis into b's
// storage. It reports false when an artificial variable is still basic (a
// degenerate phase-1 leftover), since such a basis is not expressible over
// the structural and slack columns alone.
func (s *simplexState) extractBasis(b *Basis) bool {
	nb := s.nStruct + s.nSlack
	for i := 0; i < s.m; i++ {
		if s.basis[i] >= nb {
			return false
		}
	}
	*b = Basis{NumVars: s.nStruct, NumCons: s.m, RowCol: resize(b.RowCol, s.m), ColStat: resize(b.ColStat, nb)}
	for i := 0; i < s.m; i++ {
		b.RowCol[i] = int32(s.basis[i])
	}
	for j := 0; j < nb; j++ {
		b.ColStat[j] = int8(s.status[j])
	}
	return true
}

// computeXB recomputes the basic values from scratch:
// x_B = B^{-1}(b − N x_N).
func (s *simplexState) computeXB() {
	rhs := s.rhs
	copy(rhs, s.b)
	for j := range s.cols {
		if s.status[j] == basic || s.value[j] == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			rhs[e.row] -= e.coef * s.value[j]
		}
	}
	t0 := time.Now()
	s.factor.ftranVec(rhs, s.xB)
	s.clock.since(phFtran, t0)
}

// computeDuals sets s.y = c_Bᵀ B⁻¹ for the given cost vector.
func (s *simplexState) computeDuals(cost []float64) {
	for i, j := range s.basis {
		s.cb[i] = cost[j]
	}
	t0 := time.Now()
	s.factor.btran(s.cb, s.y)
	s.clock.since(phBtran, t0)
}

// objRoundoff is the relative objective change below which a pivot makes
// no progress a float64 objective can show.
const objRoundoff = 1e-12

// roundoffOnly reports whether the columns the current prices admit could
// together lower the objective by no more than its roundoff: every one is
// boxed, and Σ|d_j|·(u_j − l_j), which bounds the decrease any feasible
// point reaches through them, is at most objRoundoff·(1 + |z|).
//
// It is asked only of the pick right after an empty one on updated
// reduced costs, whose refactorization made the prices afresh. There a
// column can be admitted by the roundoff of the dual solve alone — two
// zero-cost columns meeting rows whose duals are 10⁻²⁰ of the largest —
// and pivoting it in leaves the twin admitted by the next dual solve: a
// 2-cycle of non-degenerate steps that Bland's rule does not break.
func (s *simplexState) roundoffOnly(cost []float64) bool {
	gain := 0.0
	for j, dir := range s.dir {
		if dir == 0 {
			continue
		}
		gain += math.Abs(s.d[j]) * (s.upper[j] - s.lower[j]) // +Inf unless boxed
	}
	return gain <= objRoundoff*(1+math.Abs(s.objective(cost)))
}

// objective is the current basic solution's objective under cost.
func (s *simplexState) objective(cost []float64) float64 {
	z := 0.0
	for i, j := range s.basis {
		z += cost[j] * s.xB[i]
	}
	for j := range s.cols {
		if s.status[j] != basic && s.value[j] != 0 {
			z += cost[j] * s.value[j]
		}
	}
	return z
}

// refactorize rebuilds the basis factorization from the basis columns,
// then recomputes x_B. The next pricing step solves for the duals afresh
// and reprices every column from them.
func (s *simplexState) refactorize() error {
	t0 := time.Now()
	err := s.factor.refactorize()
	s.clock.since(phFactor, t0)
	s.nRefactor++
	if err != nil {
		return err
	}
	s.computeXB()
	s.priceAll = true
	return nil
}

// iterate runs simplex iterations with the given cost vector until
// optimality, unboundedness, or the iteration limit. It leaves the state at
// the final basis.
//
// Pricing is Devex (Forrest–Goldfarb reference weights), which resists the
// zigzagging Dantzig suffers on scheduling LPs whose reduced costs are
// dominated by one huge price (the online model's fake node); a long
// degenerate stall still falls back to Bland's rule for guaranteed
// termination. The reduced costs are updated from the pivot row
// (pricing.go); the duals are solved for only when a phase starts and
// after each refactorization, and Optimal is only ever reported on
// reduced costs fresh from them.
func (s *simplexState) iterate(cost []float64) (Status, error) {
	m := s.m
	tol := s.opts.tol
	sinceRefactor := 0
	confirming := false // pricing afresh after an empty pick on updated reduced costs
	start, exact := time.Now(), s.clock.exactSum
	defer func() { s.clock.loop += time.Since(start) - (s.clock.exactSum - exact) }()
	s.resetPricing()
	for {
		if s.iter >= s.opts.MaxIters {
			return IterLimit, nil
		}
		if sinceRefactor > 0 && s.factor.needsRefactor(sinceRefactor) {
			if err := s.refactorize(); err != nil {
				return 0, err
			}
			sinceRefactor = 0
		}
		if s.priceAll {
			s.freshPrices(cost)
		}
		useBland := s.opts.Bland || s.degenRun > 2*m+200

		// Pricing: pick the entering column — Devex score d²/weight, or
		// the first eligible column under Bland's rule. One pivot in
		// timingStride is timed (t non-zero).
		var t time.Time
		if s.iter%timingStride == 0 {
			t = time.Now()
		}
		s.refreshPrices(cost)
		entering, enterDir := s.pickEntering(useBland)
		t = s.clock.lap(phPricing, t)
		if s.opts.pricingCheck != nil {
			s.opts.pricingCheck.priced(s, cost, useBland, entering, enterDir)
		}
		if entering == -1 || (confirming && s.roundoffOnly(cost)) {
			// No improving column. With no pivot since the last
			// factorization the reduced costs come straight from a dual
			// solve, and this is optimal for this cost vector. Otherwise
			// refactorize — a clean x_B, and fresh duals — and price
			// again: a column the updates missed still enters, unless
			// all the fresh duals admit is roundoff (roundoffOnly).
			if sinceRefactor == 0 {
				if s.opts.pricingCheck != nil {
					s.opts.pricingCheck.optimal(s, cost)
				}
				return Optimal, nil
			}
			if err := s.refactorize(); err != nil {
				return 0, err
			}
			sinceRefactor = 0
			confirming = true
			continue
		}
		confirming = false

		// FTRAN: w = B^{-1} A_q, nonzero at the slots wnz.
		w, wnz := s.factor.ftranCol(s.cols[entering])
		t = s.clock.lap(phFtran, t)

		// Ratio test. The entering variable moves by t ≥ 0 in direction
		// enterDir; basic i changes by −enterDir·w[i]·t, so only the
		// slots where w is nonzero can block it. They are visited in
		// ascending order, as a scan of every slot would meet them.
		limit := math.Inf(1)
		if !math.IsInf(s.lower[entering], -1) && !math.IsInf(s.upper[entering], 1) {
			limit = s.upper[entering] - s.lower[entering] // bound flip span
		}
		leaving := -1
		leavePivot := 0.0
		leaveToUpper := false
		for _, i32 := range wnz {
			i := int(i32)
			delta := -enterDir * w[i]
			bj := s.basis[i]
			var room float64
			var hitsUpper bool
			switch {
			case delta > tol:
				if math.IsInf(s.upper[bj], 1) {
					continue
				}
				room = (s.upper[bj] - s.xB[i]) / delta
				hitsUpper = true
			case delta < -tol:
				if math.IsInf(s.lower[bj], -1) {
					continue
				}
				room = (s.xB[i] - s.lower[bj]) / -delta
				hitsUpper = false
			default:
				continue
			}
			if room < -tol {
				room = 0 // basic slightly out of bounds from roundoff
			}
			switch {
			case room < limit-1e-12:
				limit, leaving, leavePivot, leaveToUpper = room, i, w[i], hitsUpper
			case room <= limit+1e-12 && leaving >= 0:
				// Tie: Bland wants the smallest variable index;
				// otherwise prefer the larger pivot for stability.
				if useBland {
					if s.basis[i] < s.basis[leaving] {
						leaving, leavePivot, leaveToUpper = i, w[i], hitsUpper
					}
				} else if math.Abs(w[i]) > math.Abs(leavePivot) {
					leaving, leavePivot, leaveToUpper = i, w[i], hitsUpper
				}
			case room <= limit+1e-12 && leaving < 0:
				// Ties the bound-flip span: take the basis change.
				if room < limit {
					limit = room
				}
				leaving, leavePivot, leaveToUpper = i, w[i], hitsUpper
			}
		}

		if math.IsInf(limit, 1) {
			return Unbounded, nil
		}
		step := limit
		if step < 0 {
			step = 0
		}
		if step <= tol {
			s.degenRun++
		} else {
			s.degenRun = 0
		}
		s.iter++

		if leaving == -1 {
			// Bound flip: the entering variable crosses its whole span.
			// The basis, and so every reduced cost, stays.
			if s.opts.recordPivots {
				s.pivots = append(s.pivots, Pivot{Entering: int32(entering), Leaving: -1})
			}
			for _, i := range wnz {
				s.xB[i] -= enterDir * w[i] * step
			}
			if enterDir > 0 {
				s.status[entering] = atUpper
				s.value[entering] = s.upper[entering]
			} else {
				s.status[entering] = atLower
				s.value[entering] = s.lower[entering]
			}
			s.touch(entering)
			continue
		}

		// Basis change.
		if math.Abs(leavePivot) < 1e-11 && sinceRefactor > 0 {
			// Numerically unsafe pivot: refactorise and retry. When the
			// factorization is already fresh (sinceRefactor == 0) a
			// rebuild cannot improve the pivot, so we accept it rather
			// than loop.
			if err := s.refactorize(); err != nil {
				return 0, err
			}
			sinceRefactor = 0
			continue
		}
		enterVal := s.value[entering] + enterDir*step
		if s.status[entering] == atFree {
			enterVal = enterDir * step
		}
		for _, i := range wnz {
			if int(i) != leaving {
				s.xB[i] -= enterDir * w[i] * step
			}
		}
		outVar := s.basis[leaving]
		if leaveToUpper {
			s.status[outVar] = atUpper
			s.value[outVar] = s.upper[outVar]
		} else {
			s.status[outVar] = atLower
			s.value[outVar] = s.lower[outVar]
		}
		s.basis[leaving] = entering
		s.status[entering] = basic
		s.xB[leaving] = enterVal
		s.touch(entering)
		s.touch(outVar)

		if s.opts.recordPivots {
			s.pivots = append(s.pivots, Pivot{Entering: int32(entering), Leaving: int32(outVar)})
		}

		// The reduced costs and, off Bland's rule, the Devex weights
		// follow the pivot through row `leaving` of the *pre-pivot*
		// basis inverse.
		t = restart(t)
		prowOld, prowNZ := s.factor.pivotRow(leaving)
		t = s.clock.lap(phBtran, t)
		s.updatePrices(prowOld, prowNZ, leavePivot, entering, outVar, !useBland)
		t = s.clock.lap(phPricing, t)
		if !useBland && s.opts.pricingCheck != nil {
			s.opts.pricingCheck.reweighted(s, prowOld, leavePivot, entering, outVar)
		}

		// Update the factorization: slot `leaving` now holds the entering
		// column, whose FTRAN image is still in w.
		s.factor.update(w, wnz, leaving)
		s.clock.lap(phFactor, t)
		sinceRefactor++
	}
}
