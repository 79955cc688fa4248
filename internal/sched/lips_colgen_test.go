package sched

import (
	"math/rand"
	"testing"

	"lips/internal/obs"
	"lips/internal/sim"
)

// TestLiPSColGenMatchesDirect runs the same workload through the direct
// full-model LiPS and the column-generation LiPS. Both must complete,
// land on comparable dollars, and the colgen run must actually have gone
// through the restricted-master path: pricing rounds recorded, and a
// master smaller than the direct LP of the same epoch.
func TestLiPSColGenMatchesDirect(t *testing.T) {
	run := func(l *LiPS) *sim.Result {
		c := mixedCluster()
		w := smallJobSet(rand.New(rand.NewSource(3)), 3)
		return runSched(t, c, w, nil, l, sim.Options{TaskTimeoutSec: 1200})
	}

	direct := NewLiPS(400)
	directRes := run(direct)

	cg := NewLiPS(400)
	cg.ColGen = true
	cgRes := run(cg)

	if cgRes.Makespan <= 0 || directRes.Makespan <= 0 {
		t.Fatalf("zero makespan: direct %v colgen %v", directRes.Makespan, cgRes.Makespan)
	}
	if cg.Epochs == 0 {
		t.Fatal("colgen lips ran no epochs")
	}
	if cg.Solver.ColGenRounds == 0 {
		t.Errorf("colgen run recorded no pricing rounds: %s", cg.Solver.String())
	}
	dr, _ := direct.LastEpochStats()
	cr, ok := cg.LastEpochStats()
	if !ok || cr.Epoch != dr.Epoch {
		t.Fatalf("last epochs differ: direct %d, colgen %d (%v)", dr.Epoch, cr.Epoch, ok)
	}
	if cr.Cols >= dr.Cols {
		t.Errorf("epoch %d: the colgen master holds %d columns, the direct LP %d: every unit was materialized", cr.Epoch, cr.Cols, dr.Cols)
	}

	// Both solve the same exact LP per epoch, so dollars should agree
	// closely; allow slack for tie-breaking between equal-cost vertices.
	dc, cc := float64(directRes.TotalCost()), float64(cgRes.TotalCost())
	if diff := cc - dc; diff > 0.05*dc {
		t.Errorf("colgen cost %v > direct %v by %.1f%%", cgRes.TotalCost(), directRes.TotalCost(), 100*diff/dc)
	}
	t.Logf("direct=%v (%d columns) colgen=%v (%d columns) solver: %s",
		directRes.TotalCost(), dr.Cols, cgRes.TotalCost(), cr.Cols, cg.Solver.String())
}

// TestLiPSSolverMatchesLPCounters holds the lips_lp_* totals, which LiPS
// renders from each epoch record's per-round sums, against the run's
// SolverStats, which the same records reach through SolverStats.Observe,
// on both LP paths. Under ColGen an epoch is several solves and every
// total must sum them all: a solve per pricing round, a warm start per
// re-solve after an epoch's first round (no basis crosses epochs on that
// path), and every round's iterations, phase-1 iterations and
// refactorizations — not the last round's alone.
func TestLiPSSolverMatchesLPCounters(t *testing.T) {
	for _, colgen := range []bool{false, true} {
		c, w := heavyScenario()
		l := NewLiPS(200)
		l.ColGen = colgen
		reg := obs.NewRegistry()
		runSched(t, c, w, w.Placement(), l, sim.Options{TaskTimeoutSec: 1e9, Metrics: reg})
		ss := l.Solver
		solves, warm := ss.Solves, ss.WarmAccepted
		if colgen {
			solves, warm = ss.ColGenRounds, ss.ColGenRounds-l.Epochs
		}
		if ss.Phase1 == 0 || ss.Refactorizations == 0 || warm == 0 || colgen && ss.ColGenColumns == 0 {
			t.Errorf("colgen=%v: run too small to tell: %s", colgen, ss.String())
		}
		for _, c := range []struct {
			family string
			got    int
		}{
			{obs.MLPSolves, solves},
			{obs.MLPWarmStarts, warm},
			{obs.MLPIters, ss.Iters},
			{obs.MLPPhase1, ss.Phase1},
			{obs.MLPRefactor, ss.Refactorizations},
			{obs.MLPColGenRounds, ss.ColGenRounds},
			{obs.MLPColGenColumns, ss.ColGenColumns},
		} {
			if want, _ := reg.Value(c.family); float64(c.got) != want {
				t.Errorf("colgen=%v: Solver reports %d, %s = %g", colgen, c.got, c.family, want)
			}
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
