package sched

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/sim"
	"lips/internal/workload"
)

// scaleScenario builds a seed-deterministic random cluster + workload
// sized for the sched-level cross-checks (big enough that the head
// cursor, batched sweeps and the rescan fallback all fire).
func scaleScenario(nodes, tasks int, seed int64) (*cluster.Cluster, *workload.Workload) {
	rng := rand.New(rand.NewSource(seed))
	c := cluster.Random(rng, cluster.RandomSpec{Nodes: nodes})
	w := workload.Random(rng, c.StoreIDs(), workload.RandomSpec{TotalTasks: tasks})
	return c, w
}

// scaleGolden compares a Scale run with its line of
// testdata/dispatch.golden, recorded while the simulator still had its
// per-node full-scan dispatch and run through it: the batched-notification
// path must keep landing on the same cost, makespan, locality mix and
// fault counters. To re-record after an intended change, paste the printed
// line.
func scaleGolden(t *testing.T, name string, r *sim.Result) {
	t.Helper()
	golden, err := os.ReadFile("testdata/dispatch.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%s cost=%d makespan=%v locality=%v faults: %v",
		name, int64(r.TotalCost()), r.Makespan, r.Locality, r.Faults)
	if !strings.Contains("\n"+string(golden), "\n"+got+"\n") {
		t.Errorf("not a line of testdata/dispatch.golden:\n%s", got)
	}
}

// TestScaleCompletesAndMatchesDispatchGolden pins the Scale scheduler's
// results: the batched-notification path must finish every job on the
// numbers per-node full-scan dispatch produced, run after run.
func TestScaleCompletesAndMatchesDispatchGolden(t *testing.T) {
	c, w := scaleScenario(96, 3000, 4)
	run := func() *sim.Result {
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(1004)), c.StoreIDs())
		return runSched(t, c, w, p, NewScale(), sim.Options{})
	}
	r := run()
	if r.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	scaleGolden(t, "plain", r)
	scaleGolden(t, "plain", run())
	for j, done := range r.JobDone {
		if done <= 0 {
			t.Errorf("job %d never finished", j)
		}
	}
}

// TestScaleCompletesUnderFaults drives Scale through random crashes,
// store losses and stragglers: kills re-pend tasks behind the forward
// cursors, so this exercises the full-rescan fallback. Every job must
// finish, on the golden numbers.
func TestScaleCompletesUnderFaults(t *testing.T) {
	c, w := scaleScenario(64, 2000, 8)
	faults := sim.RandomFaultPlan(8, c, sim.FaultSpec{Crashes: 4, StoreLosses: 2, Slowdowns: 2})
	p := w.Placement()
	p.Shuffle(rand.New(rand.NewSource(1008)), c.StoreIDs())
	r := runSched(t, c, w, p, NewScale(), sim.Options{Faults: faults, Speculative: true})
	if r.Faults.NodesCrashed == 0 {
		t.Fatal("fault plan never crashed a node; scenario too small")
	}
	scaleGolden(t, "faults", r)
	for j, done := range r.JobDone {
		if done <= 0 {
			t.Errorf("job %d never finished under faults", j)
		}
	}
}

// TestScaleChurnPlan reuses the shared churn scenario (crashes, a
// recovery, a store loss, a straggler window) on the paper testbed: the
// large-cluster scheduler must stay correct on small clusters too.
func TestScaleChurnPlan(t *testing.T) {
	run := func() *sim.Result {
		c := mixedCluster()
		w := smallJobSet(rand.New(rand.NewSource(3)), 3)
		return runSched(t, c, w, nil, NewScale(), sim.Options{Faults: churnPlan()})
	}
	r := run()
	if r.Faults.NodesCrashed != 2 || r.Faults.NodesRecovered != 1 || r.Faults.StoresLost != 1 {
		t.Errorf("fault stats = %+v, want 2 crashes / 1 recovery / 1 store loss", r.Faults)
	}
	for j, done := range r.JobDone {
		if done <= 0 {
			t.Errorf("job %d never finished under churn", j)
		}
	}
	again := run()
	if r.Makespan != again.Makespan || r.TotalCost() != again.TotalCost() {
		t.Errorf("churn run not reproducible: makespan %g vs %g", r.Makespan, again.Makespan)
	}
}
