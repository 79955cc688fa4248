package sched

import (
	"fmt"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/sim"
	"lips/internal/workload"
)

// warmStartScenario builds a run that is forced to spread one job over
// many epochs: a tiny cluster against a job far larger than one epoch's
// CPU capacity, all input blocks on a single store. Consecutive epochs
// then carry the same queued job with the same origin set, so the LP's
// shape repeats and each epoch's hot units seed the next master.
func warmStartScenario() (*cluster.Cluster, *workload.Workload) {
	b := cluster.NewBuilder(cluster.PaperZones...)
	b.AddInstance(cluster.PaperZones[0], cost.M1Medium)
	b.AddInstance(cluster.PaperZones[1], cost.C1Medium)
	c := b.Build()

	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "heavy", Property: workload.CPUBound,
		CPUSecPerBlock: 900}
	wb.AddInputJob("heavy", "u", arch, 40*64, cluster.StoreID(0), 0)
	return c, wb.Build()
}

func runLiPS(t *testing.T) (*sim.Result, *LiPS) {
	t.Helper()
	c, w := warmStartScenario()
	l := NewLiPS(200)
	r, err := sim.New(c, w, w.Placement(), l, sim.Options{TaskTimeoutSec: 1e9}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if l.Err != nil {
		t.Fatalf("scheduler error: %v", l.Err)
	}
	return r, l
}

// TestLiPSWarmStartDeterministic re-runs the scenario and asserts
// bit-identical outcomes: the master's rounds warm-starting one another
// must not introduce any run-to-run nondeterminism into the schedule. It
// also checks the run's solver stats against its epochs.
func TestLiPSWarmStartDeterministic(t *testing.T) {
	r1, l1 := runLiPS(t)
	r2, l2 := runLiPS(t)
	if r1.Makespan != r2.Makespan {
		t.Fatalf("makespan diverged: %v vs %v", r1.Makespan, r2.Makespan)
	}
	if r1.TotalCost() != r2.TotalCost() {
		t.Fatalf("cost diverged: %v vs %v", r1.TotalCost(), r2.TotalCost())
	}
	if len(r1.JobDone) != len(r2.JobDone) {
		t.Fatalf("job count diverged")
	}
	for j := range r1.JobDone {
		if r1.JobDone[j] != r2.JobDone[j] {
			t.Fatalf("job %d done at %v vs %v", j, r1.JobDone[j], r2.JobDone[j])
		}
	}
	if l1.LPIters != l2.LPIters || l1.Solver.ColGenColumns != l2.Solver.ColGenColumns {
		t.Fatalf("solver path diverged: %s vs %s", l1.Solver.String(), l2.Solver.String())
	}
	// The stats account for every epoch's simplex solves, one per pricing
	// round, and no epoch is offered a basis from the one before it.
	ss := l1.Solver
	if l1.Epochs < 2 || ss.Solves < l1.Epochs || ss.Solves != ss.ColGenRounds || ss.Iters != l1.LPIters || ss.SolveTime <= 0 || ss.WarmAttempted != 0 {
		t.Fatalf("%d epochs, LPIters %d, stats: %s", l1.Epochs, l1.LPIters, ss.String())
	}
}

// churnRun is warmStartScenario grown to pairs (m1.medium in zone 0,
// c1.medium in zone 1) and jobs heavy jobs on alternating stores, with
// node down at downAt and back 400 s later, planned by l.
func churnRun(t *testing.T, pairs, jobs int, down cluster.NodeID, downAt float64, l *LiPS) *sim.Result {
	t.Helper()
	b := cluster.NewBuilder(cluster.PaperZones...)
	for i := 0; i < pairs; i++ {
		b.AddInstance(cluster.PaperZones[0], cost.M1Medium)
		b.AddInstance(cluster.PaperZones[1], cost.C1Medium)
	}
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "heavy", Property: workload.CPUBound, CPUSecPerBlock: 900}
	for j := 0; j < jobs; j++ {
		wb.AddInputJob(fmt.Sprintf("heavy%d", j), "u", arch, 40*64, cluster.StoreID(j%2), 0)
	}
	w := wb.Build()
	return runSched(t, c, w, w.Placement(), l, sim.Options{
		TaskTimeoutSec: 1e9,
		Faults: &sim.FaultPlan{Faults: []sim.Fault{
			{At: downAt, Kind: sim.FaultNodeDown, Node: down},
			{At: downAt + 400, Kind: sim.FaultNodeUp, Node: down},
		}},
	})
}
