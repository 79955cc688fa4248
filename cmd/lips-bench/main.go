// Command lips-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lips-bench [-experiment all|<name>] [-full] [-seed N] [-trials N]
//	           [-faults N] [-fault-seed N]
//	           [-trace FILE] [-trace-format jsonl|chrome] [-sample-interval 60]
//	           [-listen :8080] [-cpuprofile FILE] [-memprofile FILE]
//
// The names are experiments.All's; -help lists them. By default
// experiments run at Quick scale (seconds); -full selects the
// paper-scale configurations (the 1608-task Table IV job set, the
// 400-job SWIM day on 100 nodes, five trials per Fig. 5 point).
package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"lips/internal/experiments"
	"lips/internal/obs"
)

func main() {
	experiment := "all"
	flag.Func("experiment", "which artifact to regenerate: "+strings.Join(names(), "|")+" (default all)", func(v string) error {
		if !slices.Contains(names(), v) {
			return fmt.Errorf("unknown experiment %q", v)
		}
		experiment = v
		return nil
	})
	full := flag.Bool("full", false, "run at paper scale instead of quick scale")
	seed := flag.Int64("seed", 42, "random seed")
	trials := flag.Int("trials", 0, "trials per Fig. 5 point (0 = default)")
	faults := flag.Int("faults", 0, "node crashes in the churn ablation's fault plan (0 = 2)")
	faultSeed := flag.Int64("fault-seed", 0, "fault-plan seed for the churn ablation (0 = -seed)")
	cli := obs.NewCLI("lips-bench", obs.FlagProfiles|obs.FlagListen|obs.FlagTrace|obs.FlagTraceFormat)
	cli.Start()

	cfg := experiments.Config{
		Seed: *seed, Trials: *trials, Quick: !*full,
		FaultCrashes: *faults, FaultSeed: *faultSeed,
		Tracer: cli.Trace, SampleIntervalSec: cli.SampleInterval, Metrics: cli.Registry,
	}
	cli.Logger.Debug("bench config", "seed", cfg.Seed, "trials", cfg.Trials, "quick", cfg.Quick)
	cli.ExitOn(cli.Stop(run(experiment, cfg)))
}

// names lists what -experiment accepts: "all", then the registry.
func names() []string {
	out := []string{"all"}
	for _, e := range experiments.All {
		out = append(out, e.Name)
	}
	return out
}

// run prints each experiment the name selects under its title.
func run(name string, cfg experiments.Config) error {
	if !slices.Contains(names(), name) {
		return fmt.Errorf("unknown experiment %q", name)
	}
	for _, e := range experiments.All {
		if name != "all" && name != e.Name {
			continue
		}
		fmt.Printf("== %s ==\n", e.Title)
		out, err := e.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	return nil
}
