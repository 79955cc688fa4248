package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"lips/internal/sched"
	"lips/internal/sim"
)

var quickCfg = Config{Quick: true, Seed: 1}

func TestFig1ShapesAndLPAgreement(t *testing.T) {
	r, err := Fig1(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		if !row.LPAgrees {
			t.Errorf("%s at ratio %.2f: LP disagrees with the analytic break-even", row.Archetype, row.Ratio)
		}
		if math.IsInf(row.TCP, 1) {
			if !row.Move {
				t.Error("pi must always chase cheap cycles")
			}
			continue
		}
		// Below the break-even ratio moving wins; above it staying wins.
		if row.Ratio < 1 && !row.Move {
			t.Errorf("%s at ratio %.2f should move", row.Archetype, row.Ratio)
		}
		if row.Ratio > 1 && row.Move {
			t.Errorf("%s at ratio %.2f should stay", row.Archetype, row.Ratio)
		}
		if row.Ratio == 1 && math.Abs(row.SavingPct) > 1e-9 {
			t.Errorf("%s at break-even has saving %.2f%%", row.Archetype, row.SavingPct)
		}
	}
	if !strings.Contains(r.Render(), "grep") {
		t.Error("render missing archetypes")
	}
}

func TestFig5ReductionBand(t *testing.T) {
	r, err := Fig5(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 3 {
		t.Fatalf("%d points", len(r.Points))
	}
	for _, p := range r.Points {
		// The paper's band is 30–70%; allow slack for the quick sizes
		// but the optimum must never lose to the baseline.
		if p.MeanReductionPct < 5 || p.MeanReductionPct > 95 {
			t.Errorf("size J=%d M=%d: mean reduction %.1f%% out of band", p.Tasks, p.Nodes, p.MeanReductionPct)
		}
		if p.MinPct < -1e-9 {
			t.Errorf("size J=%d M=%d: LP lost to the local baseline (%.1f%%)", p.Tasks, p.Nodes, p.MinPct)
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig6CostReductionGrowsWithHeterogeneity(t *testing.T) {
	r, err := Fig6(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	var lipsRows []CompareRow
	for _, row := range r.Rows {
		if row.Scheduler == "lips" {
			lipsRows = append(lipsRows, row)
		}
	}
	if len(lipsRows) != 3 {
		t.Fatalf("%d lips rows", len(lipsRows))
	}
	// LiPS never costs more than the default scheduler...
	for _, lr := range lipsRows {
		if lr.ReductionVsDefault < -0.01 {
			t.Errorf("%s: lips lost to default by %.1f%%", lr.Setting, -100*lr.ReductionVsDefault)
		}
	}
	// ...and the saving grows as c1.medium nodes join (paper: 62% → 79–81%).
	if !(lipsRows[2].ReductionVsDefault > lipsRows[0].ReductionVsDefault) {
		t.Errorf("saving did not grow: %v", lipsRows)
	}
	if lipsRows[2].ReductionVsDefault < 0.35 {
		t.Errorf("saving at 50%% c1.medium only %.1f%%", 100*lipsRows[2].ReductionVsDefault)
	}
	// Fig. 7: LiPS trades makespan for cost — slower than the delay
	// scheduler on the heterogeneous settings.
	for i, setting := range []int{0, 3, 6} {
		delay := r.Rows[setting+1]
		lips := r.Rows[setting+2]
		if lips.Makespan < delay.Makespan {
			t.Errorf("setting %d: lips makespan %.0f beat delay %.0f", i, lips.Makespan, delay.Makespan)
		}
	}
}

func TestFig8EpochTradeoff(t *testing.T) {
	r, err := Fig8(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.Cost > first.Cost {
		t.Errorf("cost rose with epoch: %v → %v", first.Cost, last.Cost)
	}
	if last.Makespan < first.Makespan {
		t.Errorf("makespan fell with epoch: %.0f → %.0f", first.Makespan, last.Makespan)
	}
}

func TestFig9SavingsOnSWIM(t *testing.T) {
	r, err := Fig9(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	lips := r.Rows[2]
	// Paper: 68–69% reduction vs both schedulers on the 100-node
	// cluster; accept a generous band around it.
	if lips.ReductionVsDefault < 0.4 {
		t.Errorf("reduction vs default %.1f%%, want > 40%%", 100*lips.ReductionVsDefault)
	}
	if lips.ReductionVsDelay < 0.4 {
		t.Errorf("reduction vs delay %.1f%%, want > 40%%", 100*lips.ReductionVsDelay)
	}
	// Fig. 10: LiPS does not optimise execution time.
	if lips.SumJobSec < r.Rows[1].SumJobSec {
		t.Errorf("lips Σ job time %.0f beat delay %.0f", lips.SumJobSec, r.Rows[1].SumJobSec)
	}
}

func TestFig11ParallelismVsEpoch(t *testing.T) {
	r, err := Fig11(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 2 {
		t.Fatalf("%d runs", len(r.Runs))
	}
	e400, e600 := r.Runs[0], r.Runs[1]
	if e400.EpochSec != 400 || e600.EpochSec != 600 {
		t.Fatal("wrong epochs")
	}
	// Shorter epoch ⇒ faster execution (paper Fig. 11) at equal-or-more
	// parallelism and equal-or-higher cost.
	if e400.Makespan > e600.Makespan {
		t.Errorf("400s makespan %.0f worse than 600s %.0f", e400.Makespan, e600.Makespan)
	}
	if e400.ActiveNodes < e600.ActiveNodes {
		t.Errorf("400s used fewer nodes (%d) than 600s (%d)", e400.ActiveNodes, e600.ActiveNodes)
	}
	if e400.CostDollars < e600.CostDollars-1e-9 {
		t.Errorf("400s cheaper (%g) than 600s (%g)", e400.CostDollars, e600.CostDollars)
	}
}

func TestOverheadMatchesPaperScale(t *testing.T) {
	r, err := Overhead(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// Paper §VI-A: tens of milliseconds for thousands of tasks.
		if row.SolveMillis > 2000 {
			t.Errorf("%d jobs: solve took %.0f ms", row.Jobs, row.SolveMillis)
		}
		if row.SimplexIters <= 0 || row.Vars <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
}

func TestAblationFakeNode(t *testing.T) {
	r, err := AblationFakeNode(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.WithoutFakeStatus != "infeasible" {
		t.Errorf("without fake node: %s", r.WithoutFakeStatus)
	}
	if r.WithFakeStatus != "optimal" {
		t.Errorf("with fake node: %s", r.WithFakeStatus)
	}
	if math.Abs(r.DeferredFrac-0.5) > 0.01 {
		t.Errorf("deferred %.2f, want 0.5", r.DeferredFrac)
	}
	if r.DeferredTasksOfTen != 5 {
		t.Errorf("deferred tasks %d, want 5", r.DeferredTasksOfTen)
	}
}

func TestAblationRoundingGapShrinks(t *testing.T) {
	r, err := AblationRounding(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	last := r.Rows[len(r.Rows)-1]
	if math.Abs(last.GapPct) > 2 {
		t.Errorf("gap at %d tasks still %.2f%%", last.Tasks, last.GapPct)
	}
	if math.Abs(last.GapPct) > math.Abs(r.Rows[0].GapPct) {
		t.Errorf("gap did not shrink: %+v", r.Rows)
	}
}

func TestAblationBillingOccupancyCostsMore(t *testing.T) {
	r, err := AblationBilling(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.OccupancyCost < row.CPUSecCost {
			t.Errorf("%s: occupancy billing %v cheaper than CPU-seconds %v",
				row.Scheduler, row.OccupancyCost, row.CPUSecCost)
		}
	}
}

func TestAblationPricingBothOptimal(t *testing.T) {
	r, err := AblationPricing(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Iters <= 0 {
			t.Errorf("%s: %d iterations", row.Rule, row.Iters)
		}
	}
}

func TestAblationTransferConstraintBinds(t *testing.T) {
	r, err := AblationTransferConstraint(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.WithRemoteFrac > 0.05 {
		t.Errorf("with (21): %.1f%% crossed the starved link", 100*r.WithRemoteFrac)
	}
	if r.WithoutRemoteFrac < 0.9 {
		t.Errorf("without (21): only %.1f%% crossed", 100*r.WithoutRemoteFrac)
	}
}

func TestTablesRender(t *testing.T) {
	if !strings.Contains(Table1(), "wordcount") {
		t.Error("table 1 broken")
	}
	if !strings.Contains(Table3(), "c1.medium") {
		t.Error("table 3 broken")
	}
	t4 := Table4()
	if !strings.Contains(t4, "1608") || !strings.Contains(t4, "100 GB") {
		t.Error("table 4 broken")
	}
}

// TestRunFailsWithLatchedLiPSError drives run with a LiPS whose every
// epoch model is refused: the testbed has no bandwidth between nodes, so
// BuildOnlineModel rejects each epoch's zero-bandwidth transfers. The
// planner latches the error, the simulation still drains through the
// data-local fallback, and run must fail with that error instead of
// returning a result to print as a row.
func TestRunFailsWithLatchedLiPSError(t *testing.T) {
	var l *sched.LiPS
	r := lips(Fig6Epoch)
	r.make = func() sim.Scheduler {
		l = sched.NewLiPS(Fig6Epoch)
		return l
	}
	c, w, p := testbed(quickCfg.withDefaults(), 0.5)
	c.BW.IntraZoneMBps, c.BW.InterZoneMBps = 0, 0
	res, _, err := quickCfg.run(r, "lips zero-bandwidth", c, w, p, r.opts)
	if l.Err == nil || !strings.Contains(l.Err.Error(), "zero bandwidth") {
		t.Fatalf("the planner latched %v, want the zero-bandwidth refusal", l.Err)
	}
	if !errors.Is(err, l.Err) || res != nil {
		t.Fatalf("run returned (%v, %v), want the latched %v", res, err, l.Err)
	}
	if !strings.HasPrefix(err.Error(), "lips zero-bandwidth: ") {
		t.Errorf("error %q does not name the run", err)
	}
}
