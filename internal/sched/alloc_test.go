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
// simulated epoch and planEpoch together; the plan, the solution and the
// basis kept for the next warm start are most of what remains.
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
	if !l.lastEpoch.WarmStarted {
		t.Errorf("the last measured epoch started cold; the budget is for the warm steady state")
	}
	const budget = 1000
	if allocs > budget {
		t.Errorf("a steady-state epoch allocates %.0f times, budget %d", allocs, budget)
	}
	t.Logf("steady-state epoch: %.0f allocations", allocs)
}
