// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each experiment is a pure function of a Config and
// returns typed rows plus a rendered text table, so the same code backs
// the cmd/lips-bench CLI, the benchmark suite and the tests.
//
// EXPERIMENTS.md records paper-reported versus measured values for each
// artifact.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/trace"
)

// Config sizes and seeds an experiment run.
type Config struct {
	// Seed feeds every random generator; runs are reproducible.
	Seed int64
	// Trials is the number of random repetitions averaged where the
	// paper averages (Fig. 5). 0 means 5 (or 2 in Quick mode).
	Trials int
	// Quick shrinks workloads so the full suite runs in seconds — used
	// by tests and the default `go test -bench`. The full-size runs are
	// behind cmd/lips-bench -full.
	Quick bool
	// ColdStart disables epoch-to-epoch basis reuse in the LiPS
	// scheduler, forcing every epoch's LP to solve from scratch — the
	// baseline the benchmark harness compares warm starts against.
	ColdStart bool
	// FaultCrashes sizes the churn ablation (AblationFaults): how many
	// node crash+recovery pairs the seeded fault plan injects. 0 means 2.
	FaultCrashes int
	// FaultSeed seeds the fault plan independently of the workload seed,
	// so the same churn can be replayed over different workloads. 0 means
	// Seed.
	FaultSeed int64
	// Tracer, when non-nil and enabled, receives structured run events
	// from every simulation the experiments execute; runs are labeled
	// with the experiment name so multi-run traces stay readable. Nil
	// disables tracing.
	Tracer trace.Tracer
	// SampleIntervalSec sets the time-series sampling interval of traced
	// runs (sim.Options.SampleIntervalSec). 0 disables sampling.
	SampleIntervalSec float64
	// Metrics, when non-nil, receives live metrics from every simulation
	// the experiments execute (sim.Options.Metrics) — typically the
	// registry behind a lips-bench -listen server. Nil disables metrics.
	Metrics *obs.Registry
}

// simOptions decorates a run's simulator options with the suite's
// tracing configuration, labeling the run for multi-run traces.
func (c Config) simOptions(o sim.Options, label string) sim.Options {
	if c.Tracer != nil && c.Tracer.Enabled() {
		o.Tracer = c.Tracer
		o.SampleIntervalSec = c.SampleIntervalSec
		o.TraceLabel = label
	}
	o.Metrics = c.Metrics
	return o
}

// newLiPS builds a LiPS scheduler, cold-started if the run asks for it.
func (c Config) newLiPS(epochSec float64) *sched.LiPS {
	l := sched.NewLiPS(epochSec)
	l.WarmStart = !c.ColdStart
	return l
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Trials == 0 {
		if c.Quick {
			c.Trials = 2
		} else {
			c.Trials = 5
		}
	}
	if c.FaultCrashes == 0 {
		c.FaultCrashes = 2
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = c.Seed
	}
	return c
}

// renderTable renders rows with a header through a tabwriter.
func renderTable(header []string, rows [][]string) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	return b.String()
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
