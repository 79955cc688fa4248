package sched

import (
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
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		// One step per tick, so every epoch's record is read.
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
				t.Errorf("seed %d epoch %d: %d pivots on a %d × %d LP, budget 5·(rows+cols) = %d",
					seed, es.Epoch, es.Iters, es.Rows, es.Cols, 5*size)
			}
		}
		if l.Err != nil {
			t.Errorf("seed %d: %v", seed, l.Err)
			continue
		}
		if !s.Drained() {
			t.Errorf("seed %d: the day did not drain", seed)
		}
		t.Logf("seed %d: %d epochs, %d pivots", seed, l.Epochs, pivots)
	}
}
