package sched

import (
	"bytes"
	"fmt"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/sim"
	"lips/internal/trace"
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

// churnRun is warmStartScenario grown to pairs (m1.medium in zone 0,
// c1.medium in zone 1) and jobs heavy jobs on alternating stores, with
// node down at downAt and back 400 s later. It returns the result, the
// scheduler and the run's JSONL trace.
func churnRun(t *testing.T, pairs, jobs int, down cluster.NodeID, downAt float64, cold bool) (*sim.Result, *LiPS, []byte) {
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
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	l := NewLiPS(200)
	l.cold = cold
	r := runSched(t, c, w, w.Placement(), l, sim.Options{
		TaskTimeoutSec: 1e9, Tracer: sink,
		Faults: &sim.FaultPlan{Faults: []sim.Fault{
			{At: downAt, Kind: sim.FaultNodeDown, Node: down},
			{At: downAt + 400, Kind: sim.FaultNodeUp, Node: down},
		}},
	})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return r, l, buf.Bytes()
}

// TestChurnWarmMatchesCold holds warm starts to their contract across
// node churn: a node going down or up drops the basis, so the first epoch
// planned after either event is offered none, and every run schedules
// exactly as the same run solved cold every epoch — cost, makespan, moves
// and every trace line but the epoch events, which report the warm
// starts. The grid keeps the queued job set stable across the churn, the
// one case where a basis carried over would have been offered.
func TestChurnWarmMatchesCold(t *testing.T) {
	for pairs := 1; pairs <= 3; pairs++ {
		for jobs := 1; jobs <= 2; jobs++ {
			for _, at := range []float64{50, 250, 450, 650, 1050} {
				for v := cluster.NodeID(0); v < 3 && int(v) < 2*pairs; v++ {
					name := fmt.Sprintf("pairs=%d/jobs=%d/down=%d@%g", pairs, jobs, v, at)
					wr, wl, wt := churnRun(t, pairs, jobs, v, at, false)
					cr, cl, ct := churnRun(t, pairs, jobs, v, at, true)
					if wr.TotalCost() != cr.TotalCost() || wr.Makespan != cr.Makespan ||
						wl.TasksMoved != cl.TasksMoved || wl.BlocksMoved != cl.BlocksMoved {
						t.Errorf("%s: warm cost %v makespan %v moved %d tasks %d blocks; cold %v %v %d %d",
							name, wr.TotalCost(), wr.Makespan, wl.TasksMoved, wl.BlocksMoved,
							cr.TotalCost(), cr.Makespan, cl.TasksMoved, cl.BlocksMoved)
					}
					if !bytes.Equal(withoutEpochs(t, wt), withoutEpochs(t, ct)) {
						t.Errorf("%s: warm and cold traces differ outside their epoch events", name)
					}
					warmAfterChurn(t, name, wt)
				}
			}
		}
	}
}

// withoutEpochs is a JSONL trace with its epoch events left out.
func withoutEpochs(t *testing.T, jsonl []byte) []byte {
	t.Helper()
	var out []byte
	for _, line := range bytes.SplitAfter(jsonl, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		e, err := trace.DecodeLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind != trace.KindEpoch {
			out = append(out, line...)
		}
	}
	return out
}

// warmAfterChurn fails the test when the first epoch planned after a node
// went down or came back was offered a basis.
func warmAfterChurn(t *testing.T, name string, jsonl []byte) {
	t.Helper()
	events, err := trace.ReadAll(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	churned, sawChurn := false, false
	for _, e := range events {
		switch {
		case e.Kind == trace.KindFault && (e.Fault.Kind == sim.FaultNodeDown.String() || e.Fault.Kind == sim.FaultNodeUp.String()):
			churned, sawChurn = true, true
		case e.Kind == trace.KindEpoch:
			if churned && e.Epoch.Warm {
				t.Errorf("%s: epoch %d at t=%g, the first after churn, was offered a basis", name, e.Epoch.Epoch, e.T)
			}
			churned = false
		}
	}
	if !sawChurn {
		t.Errorf("%s: no node event in the trace", name)
	}
}
