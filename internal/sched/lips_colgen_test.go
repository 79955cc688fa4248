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

// TestLiPSSolverMatchesLPCounters holds the run's SolverStats against the
// lips_lp_* counters the solver publishes itself, solve by solve, on both
// LP paths. Under ColGen an epoch is several solves: every total must sum
// them all, as the iteration count always did — phase 1 and
// refactorizations used to be the last pricing round's alone.
func TestLiPSSolverMatchesLPCounters(t *testing.T) {
	for _, colgen := range []bool{false, true} {
		l := NewLiPS(400)
		l.ColGen = colgen
		reg := obs.NewRegistry()
		runSched(t, mixedCluster(), smallJobSet(rand.New(rand.NewSource(3)), 3), nil, l,
			sim.Options{TaskTimeoutSec: 1200, Metrics: reg})
		if l.Solver.Iters == 0 || l.Solver.Phase1 == 0 || l.Solver.Refactorizations == 0 {
			t.Errorf("colgen=%v: run too small to tell: %s", colgen, l.Solver.String())
		}
		for _, c := range []struct {
			family string
			got    int
		}{
			{obs.MLPIters, l.Solver.Iters},
			{obs.MLPPhase1, l.Solver.Phase1},
			{obs.MLPRefactor, l.Solver.Refactorizations},
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
