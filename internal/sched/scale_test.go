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
// testdata/dispatch.golden, recorded with sim.Options.LegacyDispatch set
// while the simulator still had its per-node full-scan dispatch: the
// batched-notification path must keep landing on the same cost, makespan,
// locality mix and fault counters. To re-record after an intended change,
// paste the "got" line.
func scaleGolden(t *testing.T, name string, r *sim.Result) {
	t.Helper()
	golden, err := os.ReadFile("testdata/dispatch.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%s cost=%d makespan=%v locality=%v faults: %v",
		name, int64(r.TotalCost()), r.Makespan, r.Locality, r.Faults)
	for _, want := range strings.Split(string(golden), "\n") {
		if strings.HasPrefix(want, name+" ") {
			if got != want {
				t.Errorf("\n got %s\nwant %s", got, want)
			}
			return
		}
	}
	t.Errorf("no golden line; got %s", got)
}

// TestScaleCompletesAndMatchesLegacyDispatch pins the Scale scheduler's
// results: the batched-notification path and the legacy per-node
// full-scan dispatch must agree exactly, and repeated runs must
// reproduce the same numbers.
func TestScaleCompletesAndMatchesLegacyDispatch(t *testing.T) {
	c, w := scaleScenario(96, 3000, 4)
	run := func(legacy bool) *sim.Result {
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(1004)), c.StoreIDs())
		return runSched(t, c, w, p, NewScale(), sim.Options{LegacyDispatch: legacy})
	}
	batched, legacy := run(false), run(true)
	if batched.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	scaleGolden(t, "plain", legacy)
	scaleGolden(t, "plain", batched)
	scaleGolden(t, "plain", run(false))
	for j, done := range batched.JobDone {
		if done <= 0 {
			t.Errorf("job %d never finished", j)
		}
	}
}

// TestScaleCompletesUnderFaults drives Scale through random crashes,
// store losses and stragglers: kills re-pend tasks behind the forward
// cursors, so this exercises the full-rescan fallback. Both dispatch
// modes must finish every job with identical results.
func TestScaleCompletesUnderFaults(t *testing.T) {
	c, w := scaleScenario(64, 2000, 8)
	faults := sim.RandomFaultPlan(8, c, sim.FaultSpec{Crashes: 4, StoreLosses: 2, Slowdowns: 2})
	run := func(legacy bool) *sim.Result {
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(1008)), c.StoreIDs())
		return runSched(t, c, w, p, NewScale(),
			sim.Options{LegacyDispatch: legacy, Faults: faults, Speculative: true})
	}
	batched, legacy := run(false), run(true)
	if batched.Faults.NodesCrashed == 0 {
		t.Fatal("fault plan never crashed a node; scenario too small")
	}
	scaleGolden(t, "faults", legacy)
	scaleGolden(t, "faults", batched)
	for j, done := range batched.JobDone {
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
