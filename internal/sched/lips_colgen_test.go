package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/core"
	"lips/internal/lp"
	"lips/internal/obs"
	"lips/internal/sim"
	"lips/internal/workload"
)

// directOracle is a checkPlan hook that solves every epoch's instance the
// direct way — the full online model (core.BuildOnlineModel), cold — and
// fails the test unless the master's optimum equals it to 1e-9 relative.
// It counts the epochs it checked and the columns each side held.
type directOracle struct {
	t                       *testing.T
	label                   string
	epochs, master, columns int
}

func (o *directOracle) check(in *core.Instance, plan *core.Plan) {
	o.epochs++
	m, err := core.BuildOnlineModel(in)
	if err != nil {
		o.t.Fatalf("%s: epoch %d: %v", o.label, o.epochs, err)
	}
	direct, err := m.Solve(lp.Options{})
	if err != nil {
		o.t.Fatalf("%s: epoch %d: direct solve: %v", o.label, o.epochs, err)
	}
	got, want := plan.ObjectiveMC, direct.ObjectiveMC
	if math.Abs(got-want) > 1e-9*math.Max(math.Abs(got), math.Abs(want)) {
		o.t.Errorf("%s: epoch %d: master objective %.12g mc, direct %.12g mc", o.label, o.epochs, got, want)
	}
	o.master += plan.Cols
	o.columns += direct.Cols
}

// randomScenario is twelve CPU-heavy jobs arriving over the first 1 100 s
// on a 200-node random cluster of six types in three zones, ~18 units:
// enough that the master leaves most of them closed, and a pricing
// oracle that misses a unit the optimum needs shows in the objective.
func randomScenario() (*cluster.Cluster, *workload.Workload) {
	rng := rand.New(rand.NewSource(5))
	c := cluster.Random(rng, cluster.RandomSpec{Nodes: 200})
	arch := workload.Archetype{Name: "heavy", Property: workload.CPUBound, CPUSecPerBlock: 600}
	wb := workload.NewBuilder()
	for i := 0; i < 12; i++ {
		wb.AddInputJob(fmt.Sprintf("heavy%d", i), fmt.Sprintf("user%d", i%4), arch,
			float64(8+rng.Intn(40))*64, c.Stores[rng.Intn(len(c.Stores))].ID, float64(100*i))
	}
	return c, wb.Build()
}

// TestLiPSColGenMatchesDirect holds every epoch's restricted master to
// the direct LP of the same instance (directOracle) on TestEpochGolden's
// runs, a small mixed job set, and a grid of node churn — a node down
// and back at five points of runs on one to three node pairs, and a
// 200-node random cluster. Every epoch must plan. The small clusters'
// masters end up revealing every unit; over all the runs the masters must
// still have held fewer columns than the direct LPs.
func TestLiPSColGenMatchesDirect(t *testing.T) {
	epochs, master, columns := 0, 0, 0
	run := func(label string, runOne func(l *LiPS)) {
		o := &directOracle{t: t, label: label}
		l := NewLiPS(200)
		l.checkPlan = o.check
		runOne(l)
		if o.epochs == 0 || o.epochs != l.Epochs {
			t.Errorf("%s: checked %d of %d epochs", label, o.epochs, l.Epochs)
		}
		epochs, master, columns = epochs+o.epochs, master+o.master, columns+o.columns
	}
	for _, sc := range epochScenarios() {
		run(sc.name, func(l *LiPS) {
			c, w := sc.build()
			opts := sim.Options{TaskTimeoutSec: 1e9}
			if sc.faults != nil {
				opts.Faults = sc.faults(c)
			}
			runSched(t, c, w, w.Placement(), l, opts)
		})
	}
	run("small-mixed", func(l *LiPS) {
		runSched(t, mixedCluster(), smallJobSet(rand.New(rand.NewSource(3)), 3), nil, l, sim.Options{TaskTimeoutSec: 1200})
	})
	run("random-200", func(l *LiPS) {
		c, w := randomScenario()
		runSched(t, c, w, w.Placement(), l, sim.Options{TaskTimeoutSec: 1e9})
	})
	for pairs := 1; pairs <= 3; pairs++ {
		for jobs := 1; jobs <= 2; jobs++ {
			for _, at := range []float64{50, 250, 450, 650, 1050} {
				for v := cluster.NodeID(0); v < 3 && int(v) < 2*pairs; v++ {
					run(fmt.Sprintf("churn/pairs=%d/jobs=%d/down=%d@%g", pairs, jobs, v, at), func(l *LiPS) {
						churnRun(t, pairs, jobs, v, at, l)
					})
				}
			}
		}
	}
	if master >= columns {
		t.Errorf("the masters held %d columns, the direct LPs %d: every unit was materialized", master, columns)
	}
	t.Logf("%d epochs checked; the masters held %d columns, the direct LPs %d", epochs, master, columns)
}

// TestLiPSSolverMatchesLPCounters holds the lips_lp_* totals, which LiPS
// renders from each epoch record's per-round sums, against the run's
// SolverStats, which the same records reach through SolverStats.Observe.
// An epoch is several solves and every total must sum them all: a solve
// per pricing round, a warm start per round (the first starts at the
// parked basis, each later one at the round before it), and every round's
// iterations and refactorizations — not the last round's alone. No round
// runs phase 1.
func TestLiPSSolverMatchesLPCounters(t *testing.T) {
	c, w := heavyScenario()
	l := NewLiPS(200)
	reg := obs.NewRegistry()
	runSched(t, c, w, w.Placement(), l, sim.Options{TaskTimeoutSec: 1e9, Metrics: reg})
	ss := l.Solver
	warm := ss.ColGenRounds
	if ss.Phase1 != 0 {
		t.Errorf("%d phase-1 iterations: some round did not start from a basis", ss.Phase1)
	}
	if ss.Refactorizations == 0 || ss.ColGenRounds <= l.Epochs || ss.ColGenColumns == 0 {
		t.Errorf("run too small to tell: %s", ss.String())
	}
	for _, c := range []struct {
		family string
		got    int
	}{
		{obs.MLPSolves, ss.Solves},
		{obs.MLPWarmStarts, warm},
		{obs.MLPIters, ss.Iters},
		{obs.MLPPhase1, ss.Phase1},
		{obs.MLPRefactor, ss.Refactorizations},
		{obs.MLPColGenRounds, ss.ColGenRounds},
		{obs.MLPColGenColumns, ss.ColGenColumns},
	} {
		if want, _ := reg.Value(c.family); float64(c.got) != want {
			t.Errorf("Solver reports %d, %s = %g", c.got, c.family, want)
		}
	}
}

// TestLiPSInitTwice reuses one scheduler across two sim runs — the Init
// path must reset state and re-register observability without panicking
// on duplicate metric names.
func TestLiPSInitTwice(t *testing.T) {
	l := NewLiPS(400)
	for i := 0; i < 2; i++ {
		c := mixedCluster()
		w := smallJobSet(rand.New(rand.NewSource(3)), 3)
		r := runSched(t, c, w, nil, l, sim.Options{TaskTimeoutSec: 1200})
		if r.Makespan <= 0 {
			t.Fatalf("run %d: zero makespan", i)
		}
	}
}
