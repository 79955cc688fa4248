//go:build !race

package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/sim"
	"lips/internal/workload"
)

// TestEpochAllocs gates what one steady-state LiPS epoch allocates — a
// count, so it holds on any machine where a wall-clock bound cannot. The
// run is the daemon's: a 1k-node cluster stepped in 60 s epochs with five
// grep jobs admitted before each, measured long after the first epochs
// have sized every reused workspace. The budget covers admission, the
// simulated epoch and planEpoch together; the restricted master, its
// rounds' solutions and the plan are most of what remains.
func TestEpochAllocs(t *testing.T) {
	const warmup, measured, perEpoch = 100, 40, 5
	c := cluster.Random(rand.New(rand.NewSource(1)), cluster.RandomSpec{Nodes: 1000})
	l := NewLiPS(60)
	s := sim.New(c, &workload.Workload{}, nil, l, sim.Options{Metrics: obs.NewRegistry()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	names := make([]string, (warmup+measured+1)*perEpoch)
	for i := range names {
		names[i] = fmt.Sprintf("grep-%d", i)
	}
	submitted := 0
	epoch := func() {
		for i := 0; i < perEpoch; i++ {
			name := names[submitted]
			submitted++
			if _, err := s.AddJob(workload.Job{
				Name: name, User: "tenant", Archetype: workload.Grep.Name,
				CPUSecPerMB: workload.Grep.CPUSecPerMB(), AccessFrac: 0.5 + 0.5*rng.Float64(),
			}, &hdfs.DataObject{
				Name: name, SizeMB: float64(4+rng.Intn(12)) * 64,
				Origin: cluster.StoreID(rng.Intn(len(c.Stores))),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.StepUntil(s.Now() + 60); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < warmup; e++ {
		epoch()
	}
	before := l.Epochs
	allocs := testing.AllocsPerRun(measured, epoch)
	if l.Err != nil {
		t.Fatal(l.Err)
	}
	if planned := l.Epochs - before; planned < measured {
		t.Fatalf("%d of %d measured steps planned an epoch", planned, measured+1)
	}
	const budget = 600
	if allocs > budget {
		t.Errorf("a steady-state epoch allocates %.0f times, budget %d", allocs, budget)
	}
	t.Logf("steady-state epoch: %.0f allocations", allocs)
}

// pausable forwards every callback to the scheduler it wraps except
// OnSlotFree, which it drops while paused: free slots and pending work
// then pile up side by side, so that the scheduler's own OnSlotFree has
// a real decision to make on every idle node.
type pausable struct {
	sim.Scheduler
	paused bool
}

func (p *pausable) OnSlotFree(s *sim.Sim, n cluster.NodeID) {
	if !p.paused {
		p.Scheduler.OnSlotFree(s, n)
	}
}

// TestSlotFreeAllocs gates what one slot-free decision of FIFO, Delay
// and Fair allocates — a count, like TestEpochAllocs. The paper's
// 100-node SWIM day runs to 06:00; then the slot-free path pauses for two
// hours: the jobs that arrive meanwhile wait with every task Pending
// (2020 tasks over 41 jobs), the running work drains, and each measured
// call hands the scheduler another idle node. Walking the job index and
// asking the locality indexes allocates nothing; the rescans the job
// index replaced allocated 13 times a call under FIFO and 71 under
// Delay, and Fair's per-call pool maps 18. Delay's budget leaves one
// allocation for its maps, whose growth differs between Go runtimes.
func TestSlotFreeAllocs(t *testing.T) {
	const runs = 20
	for _, tc := range []struct {
		name   string
		sched  sim.Scheduler
		budget float64
	}{
		{"fifo", NewFIFO(), 0},
		{"delay", NewDelay(), 1},
		{"fair", NewFair(), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.Paper100()
			w := workload.SWIM(rand.New(rand.NewSource(1)), c.StoreIDs(), workload.DefaultSWIMSpec())
			pl := w.Placement()
			pl.Shuffle(rand.New(rand.NewSource(1)), c.StoreIDs())
			p := &pausable{Scheduler: tc.sched}
			s := sim.New(c, w, pl, p, sim.Options{})
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			if err := s.StepUntil(6 * 3600); err != nil {
				t.Fatal(err)
			}
			p.paused = true
			if err := s.StepUntil(8 * 3600); err != nil {
				t.Fatal(err)
			}
			pending, _, _, _ := s.StateCounts()
			idle := s.IdleNodes(nil)
			if pending == 0 || len(idle) <= runs {
				t.Fatalf("paused with %d pending tasks and %d idle nodes", pending, len(idle))
			}
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				tc.sched.OnSlotFree(s, idle[i])
				i++
			})
			if allocs > tc.budget {
				t.Errorf("one %s OnSlotFree allocates %.0f times, budget %.0f", tc.name, allocs, tc.budget)
			}
			t.Logf("%s OnSlotFree: %.0f allocations", tc.name, allocs)
		})
	}
}
