package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lips/internal/cluster"
	"lips/internal/sim"
	"lips/internal/workload"
)

// TestQuickLiPSAlwaysCompletes fuzzes LiPS across random clusters,
// workloads, epochs and aggregation modes: every run must terminate with
// all jobs done, no scheduler error, and sane accounting.
func TestQuickLiPSAlwaysCompletes(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := cluster.Random(rng, cluster.RandomSpec{
			Nodes: 4 + rng.Intn(16),
			Types: 2 + rng.Intn(4),
			Zones: 1 + rng.Intn(3),
		})
		stores := make([]cluster.StoreID, len(c.Stores))
		for i := range stores {
			stores[i] = cluster.StoreID(i)
		}
		wb := workload.NewBuilder()
		jobs := 1 + rng.Intn(6)
		for j := 0; j < jobs; j++ {
			if rng.Intn(5) == 0 {
				wb.AddNoInputJob("pi", "u", 1+rng.Intn(4), 10+rng.Float64()*200, rng.Float64()*500)
				continue
			}
			arch := workload.Archetype{Name: "syn", Property: workload.Mixed,
				CPUSecPerBlock: 5 + rng.Float64()*90}
			frac := 1.0
			if rng.Intn(3) == 0 {
				frac = 0.1 + 0.9*rng.Float64() // partial data access
			}
			wb.AddPartialInputJob("j", "u", arch, float64(1+rng.Intn(10))*64, frac,
				stores[rng.Intn(len(stores))], rng.Float64()*500)
		}
		w := wb.Build()
		p := w.Placement()
		p.Shuffle(rng, stores)

		l := NewLiPS(60 + rng.Float64()*600)
		l.perNode = rng.Intn(2) != 0
		opts := sim.Options{TaskTimeoutSec: 1200, SharedLinks: rng.Intn(2) == 0}
		r, err := sim.New(c, w, p, l, opts).Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if l.Err != nil {
			t.Logf("seed %d: lips error: %v", seed, l.Err)
			return false
		}
		for j, done := range r.JobDone {
			if done < w.Jobs[j].ArrivalSec {
				t.Logf("seed %d: job %d done %g before arrival %g", seed, j, done, w.Jobs[j].ArrivalSec)
				return false
			}
		}
		if r.TotalCost() < 0 {
			t.Logf("seed %d: negative cost", seed)
			return false
		}
		if r.Utilization < 0 || r.Utilization > 1 {
			t.Logf("seed %d: utilization %g", seed, r.Utilization)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickBaselinesAlwaysComplete runs the same fuzz against the other
// schedulers.
func TestQuickBaselinesAlwaysComplete(t *testing.T) {
	check := func(seed int64, which uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := cluster.Random(rng, cluster.RandomSpec{Nodes: 4 + rng.Intn(12)})
		stores := make([]cluster.StoreID, len(c.Stores))
		for i := range stores {
			stores[i] = cluster.StoreID(i)
		}
		w := workload.Random(rng, stores, workload.RandomSpec{TotalTasks: 20 + rng.Intn(200)})
		p := w.Placement()
		p.Shuffle(rng, stores)
		var s sim.Scheduler
		switch which % 4 {
		case 0:
			s = NewFIFO()
		case 1:
			s = NewDelay()
		case 2:
			s = NewFair()
		default:
			s = NewQuincy()
		}
		opts := sim.Options{Speculative: rng.Intn(2) == 0}
		if _, err := sim.New(c, w, p, s, opts).Run(); err != nil {
			t.Logf("seed %d %s: %v", seed, s.Name(), err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
