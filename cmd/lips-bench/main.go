// Command lips-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lips-bench [-experiment all|table1|table3|table4|fig1|fig5|fig6|fig8|fig9|fig11|scale|overhead|ablations|faults|spot|baselines|service]
//	           [-full] [-seed N] [-trials N] [-cold-start]
//	           [-faults N] [-fault-seed N]
//	           [-trace FILE] [-trace-format jsonl|chrome] [-sample-interval 60]
//	           [-listen :8080] [-cpuprofile FILE] [-memprofile FILE]
//
// By default experiments run at Quick scale (seconds); -full selects the
// paper-scale configurations (the 1608-task Table IV job set, the 400-job
// SWIM day on 100 nodes, five trials per Fig. 5 point).
package main

import (
	"flag"
	"fmt"

	"lips/internal/experiments"
	"lips/internal/obs"
)

func main() {
	experiment := flag.String("experiment", "all", "which artifact to regenerate")
	full := flag.Bool("full", false, "run at paper scale instead of quick scale")
	seed := flag.Int64("seed", 42, "random seed")
	trials := flag.Int("trials", 0, "trials per Fig. 5 point (0 = default)")
	coldStart := flag.Bool("cold-start", false, "disable epoch-to-epoch LP basis reuse")
	faults := flag.Int("faults", 0, "node crashes in the churn ablation's fault plan (0 = 2)")
	faultSeed := flag.Int64("fault-seed", 0, "fault-plan seed for the churn ablation (0 = -seed)")
	cli := obs.NewCLI("lips-bench", obs.FlagProfiles|obs.FlagListen|obs.FlagTrace|obs.FlagTraceFormat)
	cli.Start()

	cfg := experiments.Config{
		Seed: *seed, Trials: *trials, Quick: !*full, ColdStart: *coldStart,
		FaultCrashes: *faults, FaultSeed: *faultSeed,
		Tracer: cli.Trace, SampleIntervalSec: cli.SampleInterval, Metrics: cli.Registry,
	}
	cli.Logger.Debug("bench config", "seed", cfg.Seed, "trials", cfg.Trials, "quick", cfg.Quick)
	cli.ExitOn(cli.Stop(run(*experiment, cfg)))
}

func run(experiment string, cfg experiments.Config) error {
	all := experiment == "all"
	did := false
	section := func(name, title string) bool {
		if !all && experiment != name {
			return false
		}
		did = true
		fmt.Printf("== %s ==\n", title)
		return true
	}

	if section("table1", "Table I — CPU intensiveness per benchmark") {
		fmt.Println(experiments.Table1())
	}
	if section("table3", "Table III — EC2 instance catalog") {
		fmt.Println(experiments.Table3())
	}
	if section("table4", "Table IV — job set J1–J9") {
		fmt.Println(experiments.Table4())
	}
	if section("fig1", "Figure 1 — break-even: move data vs move computation") {
		r, err := experiments.Fig1(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("fig5", "Figure 5 — simulated cost reduction vs problem size") {
		r, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("fig6", "Figures 6 & 7 — 20-node testbed: cost and execution time") {
		r, err := experiments.Fig6(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("fig8", "Figure 8 — epoch length: cost/performance trade-off") {
		r, err := experiments.Fig8(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("fig9", "Figures 9 & 10 — 100-node SWIM workload: cost and execution time") {
		r, err := experiments.Fig9(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("fig11", "Figure 11 — accumulated CPU time per node (epoch 400 s vs 600 s)") {
		r, err := experiments.Fig11(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("scale", "Scale — simulator throughput up the cluster-size ladder") {
		r, err := experiments.Scale(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("overhead", "§VI-A — LiPS scheduler overhead (LP build + solve)") {
		r, err := experiments.Overhead(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("ablations", "Ablations — design-choice studies") {
		a1, err := experiments.AblationFakeNode(cfg)
		if err != nil {
			return err
		}
		fmt.Println("-- fake overflow node F --")
		fmt.Println(a1.Render())
		a2, err := experiments.AblationRounding(cfg)
		if err != nil {
			return err
		}
		fmt.Println("-- fractional vs rounded integral plans --")
		fmt.Println(a2.Render())
		a3, err := experiments.AblationBilling(cfg)
		if err != nil {
			return err
		}
		fmt.Println("-- CPU-seconds vs slot-occupancy billing --")
		fmt.Println(a3.Render())
		a4, err := experiments.AblationPricing(cfg)
		if err != nil {
			return err
		}
		fmt.Println("-- simplex pricing rules --")
		fmt.Println(a4.Render())
		a5, err := experiments.AblationTransferConstraint(cfg)
		if err != nil {
			return err
		}
		fmt.Println("-- online transfer-time constraint (21) --")
		fmt.Println(a5.Render())
		a6, err := experiments.AblationContention(cfg)
		if err != nil {
			return err
		}
		fmt.Println("-- dedicated vs shared (contended) network links --")
		fmt.Println(a6.Render())
	}
	if section("faults", "Churn — LiPS vs delay scheduling under injected faults") {
		r, err := experiments.AblationFaults(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("spot", "Extension — spot-market price volatility") {
		r, err := experiments.SpotMarket(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("baselines", "Extension — all-schedulers shoot-out (Fig. 6 iii setting)") {
		r, err := experiments.Baselines(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if section("service", "Extension — streaming submissions with cancels (lips-serve regime)") {
		r, err := experiments.Service(cfg)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	}
	if !did {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
