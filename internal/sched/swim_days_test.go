package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/sim"
	"lips/internal/workload"
)

// TestSWIMDaysComplete runs the paper's SWIM day under LiPS — Paper100,
// `lips-sim`'s seeding and 600 s epochs — on seeds 1–30, reduced to 100
// jobs over the same arrival rate. Every day must finish without a
// scheduling error, and no epoch's solve may take more than 5·(rows+cols)
// pivots: the simplex terminates on the LPs the scheduler really builds.
func TestSWIMDaysComplete(t *testing.T) {
	const jobs = 100
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := cluster.Paper100()
		stores := c.StoreIDs()
		w := workload.SWIM(rng, stores, workload.SWIMSpec{Jobs: jobs, DurationSec: jobs * 216})
		p := w.Placement()
		p.Shuffle(rng, stores)
		l := NewLiPS(600)
		s := sim.New(c, w, p, l, sim.Options{TaskTimeoutSec: 1200})
		pivots := drainWithinBudget(t, fmt.Sprintf("seed %d", seed), s, l)
		t.Logf("seed %d: %d epochs, %d pivots", seed, l.Epochs, pivots)
	}
}

// TestRandomDayCompletes runs `lips-sim -cluster paper100 -workload random
// -tasks 12000 -scheduler lips` (seed 1, 600 s epochs) to drain, under the
// pivot budget TestSWIMDaysComplete sets. Its first epoch plans 289 jobs,
// and its first restricted-master round once ran without end from the
// slack basis. Each simplex solve is also capped at maxIters pivots, so a
// stall fails the test in about a second instead of hanging it.
func TestRandomDayCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := cluster.Paper100()
	stores := c.StoreIDs()
	w := workload.Random(rng, stores, workload.RandomSpec{TotalTasks: 12000})
	p := w.Placement()
	p.Shuffle(rng, stores)
	l := NewLiPS(600)
	l.maxIters = 4000
	s := sim.New(c, w, p, l, sim.Options{TaskTimeoutSec: 1200})
	pivots := drainWithinBudget(t, "random day", s, l)
	t.Logf("%d jobs: %d epochs, %d pivots", len(w.Jobs), l.Epochs, pivots)
}

// drainWithinBudget runs s one LiPS tick at a time until it drains or l
// latches an error, so every epoch's record is read, and fails the test
// on an epoch that took more than 5·(rows+cols) pivots or stalled, on a
// scheduling error and on a day that did not drain. It returns the
// pivots of every epoch.
func drainWithinBudget(t *testing.T, label string, s *sim.Sim, l *LiPS) int {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	last, pivots := 0, 0
	for at := 0.0; !s.Drained() && l.Err == nil; at += l.EpochSec {
		if err := s.StepUntil(at); err != nil {
			t.Fatal(err)
		}
		es, ok := l.LastEpochStats()
		if !ok || es.Epoch == last {
			continue
		}
		last = es.Epoch
		pivots += es.Iters
		if size := es.Rows + es.Cols; es.Iters > 5*size || es.Stalled {
			t.Errorf("%s epoch %d: %d pivots on a %d × %d LP, budget 5·(rows+cols) = %d",
				label, es.Epoch, es.Iters, es.Rows, es.Cols, 5*size)
		}
	}
	if l.Err != nil {
		t.Errorf("%s: %v", label, l.Err)
	} else if !s.Drained() {
		t.Errorf("%s: the day did not drain", label)
	}
	return pivots
}
