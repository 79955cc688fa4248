package lp

import "time"

// Stats is what one solve cost: the simplex's counters and the wall-clock
// split of where it went. It is declared here and nowhere else — Solution,
// ColGenStats, core.Plan, metrics.SolverStats and sched.EpochRecord embed
// it, so a solve's numbers travel from the simplex to every report as one
// value and sums of solves (pricing rounds, epochs, runs) go through Add.
type Stats struct {
	Iters  int // total simplex iterations (both phases)
	Phase1 int // iterations spent in phase 1 (0 on an accepted warm start)
	// Refactorizations counts from-scratch basis factorizations.
	Refactorizations int
	// FactorNNZ is the nonzero count of the final basis factorization,
	// L+U fill-in included. A snapshot, not a sum: see Add.
	FactorNNZ int
	// Deprecated: PresolveRows and PresolveCols are always 0; there is no
	// presolve pass. Their last reader is bench/replay.go.
	PresolveRows, PresolveCols int

	// The wall-clock split by phase. These four are estimates: the
	// simplex reads the clock on one pivot in 64, and scales
	// what those pivots spent so that the four sum to the wall-clock of
	// its pivot loops (see phaseClock); refactorizations and the full
	// dual solves are timed every time. So none exceeds the solve's
	// wall-clock.
	//
	// PricingTime covers the pricing step: the reduced-cost updates and
	// refreshes, the entering-column pick and the Devex weights.
	PricingTime time.Duration
	// FactorTime covers building and updating the basis factorization;
	// FtranTime and BtranTime the triangular solves (entering columns and
	// x_B; duals and pivot rows).
	FactorTime time.Duration
	FtranTime  time.Duration
	BtranTime  time.Duration
}

// Add folds a later solve into s: every counter and timer sums, and
// FactorNNZ, which describes one factorization, becomes the later
// solve's.
func (s *Stats) Add(o Stats) {
	s.Iters += o.Iters
	s.Phase1 += o.Phase1
	s.Refactorizations += o.Refactorizations
	s.FactorNNZ = o.FactorNNZ
	s.PricingTime += o.PricingTime
	s.FactorTime += o.FactorTime
	s.FtranTime += o.FtranTime
	s.BtranTime += o.BtranTime
}

// stats reads the solve's counters out of the working state.
func (s *simplexState) stats() Stats {
	t := s.clock.estimate()
	return Stats{
		Iters: s.iter, Phase1: s.p1it,
		Refactorizations: s.nRefactor, FactorNNZ: s.factor.nnz(),
		PricingTime: t[phPricing], FactorTime: t[phFactor],
		FtranTime: t[phFtran], BtranTime: t[phBtran],
	}
}

// The phases a solve's wall-clock is split into.
const (
	phPricing = iota
	phFactor
	phFtran
	phBtran
	nPhases
)

// timingStride is how many pivots share one timed pivot.
const timingStride = 64

// phaseClock splits a solve's wall-clock by phase without reading the
// clock on every pivot. The steps that run a few times a solve —
// refactorizations, x_B, the full dual solves and the repricing they
// feed — are timed each time, into exact. The steps of every pivot are
// timed on one pivot in timingStride, into sampled, and the pivot loops'
// wall-clock less the exact steps inside them is kept in loop. estimate
// scales sampled up to loop.
type phaseClock struct {
	exact, sampled [nPhases]time.Duration
	exactSum, loop time.Duration
}

// since adds the time since t0 to phase ph's exact time.
func (c *phaseClock) since(ph int, t0 time.Time) {
	d := time.Since(t0)
	c.exact[ph] += d
	c.exactSum += d
}

// lap adds the time since t to phase ph's sampled time and returns the
// time now. On a pivot that is not timed t is zero, and lap reads no
// clock.
func (c *phaseClock) lap(ph int, t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	now := time.Now()
	c.sampled[ph] += now.Sub(t)
	return now
}

// restart returns the time now on a timed pivot (t non-zero), else zero.
func restart(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	return time.Now()
}

// estimate is each phase's exact time plus its share, by the sampled
// pivots, of the loops' remaining wall-clock: the four sum to the loops'
// wall-clock and the exact time outside them.
func (c *phaseClock) estimate() [nPhases]time.Duration {
	t := c.exact
	var sampled time.Duration
	for _, d := range c.sampled {
		sampled += d
	}
	if sampled <= 0 || c.loop <= 0 {
		return t
	}
	scale := float64(c.loop) / float64(sampled)
	for ph, d := range c.sampled {
		t[ph] += time.Duration(float64(d) * scale)
	}
	return t
}

// itersOnly keeps the iteration counts and drops the rest: what a solve
// abandoned in phase 1 (iteration limit, infeasible) has always reported.
// testdata/pivots.golden pins refactor=0 on those lines.
func (s Stats) itersOnly() Stats { return Stats{Iters: s.Iters, Phase1: s.Phase1} }
