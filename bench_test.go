package lips

// One benchmark per table and figure of the paper's evaluation. Each
// regenerates its artifact through internal/experiments at Quick scale so
// that `go test -bench=.` finishes promptly; pass -full to cmd/lips-bench
// for the paper-size runs. Key result values are attached as custom
// benchmark metrics.

import (
	"testing"

	"lips/internal/experiments"
)

var benchCfg = experiments.Config{Quick: true, Seed: 42}

func BenchmarkTable1CPUIntensiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3InstanceCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table3() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable4JobSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table4() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1BreakEven(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		saving = r.Rows[len(r.Rows)-1].SavingPct
	}
	b.ReportMetric(saving, "pi_saving_%")
}

func BenchmarkFig5CostReductionVsSize(b *testing.B) {
	var largest float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		largest = r.Points[len(r.Points)-1].MeanReductionPct
	}
	b.ReportMetric(largest, "reduction_%")
}

func BenchmarkFig6CostReduction20Nodes(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		reduction = 100 * r.Rows[len(r.Rows)-1].ReductionVsDelay
	}
	b.ReportMetric(reduction, "reduction_vs_delay_%")
}

func BenchmarkFig7ExecutionTime20Nodes(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		// LiPS makespan relative to the delay scheduler on setting (iii).
		slowdown = r.Rows[8].Makespan / r.Rows[7].Makespan
	}
	b.ReportMetric(slowdown, "lips/delay_makespan")
}

func BenchmarkFig8EpochSweep(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		spread = first.Cost.ToDollars() - last.Cost.ToDollars()
	}
	b.ReportMetric(spread, "cost_drop_$")
}

func BenchmarkFig9Cost100Nodes(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		reduction = 100 * r.Rows[2].ReductionVsDefault
	}
	b.ReportMetric(reduction, "reduction_vs_default_%")
}

// BenchmarkFig9ColdStartLP reruns the 100-node experiment with
// epoch-to-epoch basis reuse disabled — the seed's solve behaviour. The
// gap to BenchmarkFig9Cost100Nodes is the end-to-end warm-start win.
func BenchmarkFig9ColdStartLP(b *testing.B) {
	cfg := benchCfg
	cfg.ColdStart = true
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ExecutionTime100Nodes(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Rows[2].SumJobSec / r.Rows[1].SumJobSec
	}
	b.ReportMetric(ratio, "lips/delay_jobtime")
}

func BenchmarkFig11CPUBreakdown(b *testing.B) {
	var active float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		active = float64(r.Runs[0].ActiveNodes)
	}
	b.ReportMetric(active, "active_nodes_e400")
}

func BenchmarkSchedulerOverhead(b *testing.B) {
	var solveMs float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Overhead(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		solveMs = r.Rows[len(r.Rows)-1].SolveMillis
	}
	b.ReportMetric(solveMs, "lp_solve_ms")
}

func BenchmarkAblationFakeNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFakeNode(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRounding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRounding(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBilling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBilling(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPricing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPricing(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTransferConstraint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTransferConstraint(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationContention(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselinesShootout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Baselines(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpotMarket(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.SpotMarket(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		penalty = 100 * (float64(last.SpotCost)/float64(last.StaticCost) - 1)
	}
	b.ReportMetric(penalty, "repricing_spot_penalty_%")
}
