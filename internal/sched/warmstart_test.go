package sched

import (
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
// shape repeats and the previous basis is reusable.
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

func runLiPS(t *testing.T, warm bool) (*sim.Result, *LiPS) {
	t.Helper()
	c, w := warmStartScenario()
	l := NewLiPS(200)
	l.cold = !warm
	r, err := sim.New(c, w, w.Placement(), l, sim.Options{TaskTimeoutSec: 1e9}).Run()
	if err != nil {
		t.Fatalf("warm=%v: %v", warm, err)
	}
	if l.Err != nil {
		t.Fatalf("warm=%v: scheduler error: %v", warm, l.Err)
	}
	return r, l
}

// TestLiPSWarmStartAcrossEpochs drives the scheduler end-to-end and
// checks the epoch-to-epoch basis threading: warm starts are attempted
// from the second solve on, at least one is accepted, and the solver
// stats account for every solve. The cold configuration must never
// attempt one.
func TestLiPSWarmStartAcrossEpochs(t *testing.T) {
	r, l := runLiPS(t, true)
	if l.Epochs < 2 {
		t.Fatalf("scenario finished in %d epochs — cannot exercise basis reuse", l.Epochs)
	}
	if l.Solver.Solves != l.Epochs {
		t.Fatalf("%d solves recorded over %d epochs", l.Solver.Solves, l.Epochs)
	}
	if l.Solver.WarmAttempted == 0 {
		t.Fatal("no warm start attempted in the warm configuration over multiple epochs")
	}
	if l.Solver.WarmAccepted == 0 {
		t.Fatalf("no warm start accepted across %d attempts (stats: %s)",
			l.Solver.WarmAttempted, l.Solver.String())
	}
	if l.Solver.SolveTime <= 0 || l.Solver.Iters != l.LPIters {
		t.Fatalf("inconsistent stats: %s vs LPIters=%d", l.Solver.String(), l.LPIters)
	}
	t.Logf("warm run: makespan %.0f s, %s", r.Makespan, l.Solver.String())

	_, cold := runLiPS(t, false)
	if cold.Solver.WarmAttempted != 0 || cold.Solver.WarmAccepted != 0 {
		t.Fatalf("cold run attempted warm starts: %s", cold.Solver.String())
	}
}

// TestLiPSWarmStartDeterministic re-runs the warm configuration and
// asserts bit-identical outcomes: basis reuse must not introduce any
// run-to-run nondeterminism into the schedule.
func TestLiPSWarmStartDeterministic(t *testing.T) {
	r1, l1 := runLiPS(t, true)
	r2, l2 := runLiPS(t, true)
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
	if l1.LPIters != l2.LPIters || l1.Solver.WarmAccepted != l2.Solver.WarmAccepted {
		t.Fatalf("solver path diverged: %s vs %s", l1.Solver.String(), l2.Solver.String())
	}
}
