// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each experiment is a pure function of a Config and
// returns typed rows plus a rendered text table; All lists them once, so
// the same code backs the cmd/lips-bench CLI, the benchmark suite and
// the tests.
//
// EXPERIMENTS.md records paper-reported versus measured values for each
// artifact.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"

	"lips/internal/cluster"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/trace"
	"lips/internal/workload"
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

// Experiment is one artifact of the evaluation: Run regenerates it and
// returns the rendered table that lips-bench prints under Title.
type Experiment struct {
	Name, Title string
	Run         func(Config) (string, error)
}

// All is the evaluation in print order — the one list lips-bench, the
// root benchmark and the golden test iterate.
var All = []Experiment{
	{"table1", "Table I — CPU intensiveness per benchmark", static(Table1)},
	{"table3", "Table III — EC2 instance catalog", static(Table3)},
	{"table4", "Table IV — job set J1–J9", static(Table4)},
	{"fig1", "Figure 1 — break-even: move data vs move computation", rendered(Fig1)},
	{"fig5", "Figure 5 — simulated cost reduction vs problem size", rendered(Fig5)},
	{"fig6", "Figures 6 & 7 — 20-node testbed: cost and execution time", rendered(Fig6)},
	{"fig8", "Figure 8 — epoch length: cost/performance trade-off", rendered(Fig8)},
	{"fig9", "Figures 9 & 10 — 100-node SWIM workload: cost and execution time", rendered(Fig9)},
	{"fig11", "Figure 11 — accumulated CPU time per node (epoch 400 s vs 600 s)", rendered(Fig11)},
	{"scale", "Scale — simulator throughput up the cluster-size ladder", rendered(Scale)},
	{"overhead", "§VI-A — LiPS scheduler overhead (LP build + solve)", rendered(Overhead)},
	{"ablations", "Ablations — design-choice studies", ablations},
	{"faults", "Churn — LiPS vs delay scheduling under injected faults", rendered(AblationFaults)},
	{"spot", "Extension — spot-market price volatility", rendered(SpotMarket)},
	{"baselines", "Extension — all-schedulers shoot-out (Fig. 6 iii setting)", rendered(Baselines)},
	{"service", "Extension — streaming submissions with cancels (lips-serve regime)", rendered(Service)},
}

// rendered adapts an experiment returning typed rows to the registry.
func rendered[R interface{ Render() string }](f func(Config) (R, error)) func(Config) (string, error) {
	return func(cfg Config) (string, error) {
		r, err := f(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// static adapts a configuration table, which no Config changes.
func static(f func() string) func(Config) (string, error) {
	return func(Config) (string, error) { return f(), nil }
}

// ablations runs the six design-choice studies as one entry, each under
// its own `-- … --` sub-heading.
func ablations(cfg Config) (string, error) {
	var parts []string
	for _, a := range []struct {
		title string
		run   func(Config) (string, error)
	}{
		{"fake overflow node F", rendered(AblationFakeNode)},
		{"fractional vs rounded integral plans", rendered(AblationRounding)},
		{"CPU-seconds vs slot-occupancy billing", rendered(AblationBilling)},
		{"simplex pricing rules", rendered(AblationPricing)},
		{"online transfer-time constraint (21)", rendered(AblationTransferConstraint)},
		{"dedicated vs shared (contended) network links", rendered(AblationContention)},
	} {
		out, err := a.run(cfg)
		if err != nil {
			return "", err
		}
		parts = append(parts, "-- "+a.title+" --\n"+out)
	}
	return strings.Join(parts, "\n"), nil
}

// runner is one scheduler of the roster the simulation studies draw
// from: its row label, a constructor for a fresh instance per run, and
// the simulator options its runs take.
type runner struct {
	label string
	make  func() sim.Scheduler
	opts  sim.Options
}

func fifo() runner {
	return runner{"hadoop-default", func() sim.Scheduler { return sched.NewFIFO() }, sim.Options{}}
}

func delay() runner {
	return runner{"delay", func() sim.Scheduler { return sched.NewDelay() }, sim.Options{}}
}

func fair() runner {
	return runner{"fair", func() sim.Scheduler { return sched.NewFair() }, sim.Options{}}
}

func quincy() runner {
	return runner{"quincy-like", func() sim.Scheduler { return sched.NewQuincy() }, sim.Options{}}
}

// lips plans every epochSec seconds; its runs raise the input-transfer
// timeout (sim.Options.TaskTimeoutSec) from Hadoop's 10 minutes to 20.
func lips(epochSec float64) runner {
	return runner{"lips", func() sim.Scheduler { return sched.NewLiPS(epochSec) }, sim.Options{TaskTimeoutSec: 1200}}
}

// run simulates r on one testbed under opts, labeled for multi-run
// traces. A LiPS run whose planner latched an error fails with it — the
// simulation still drains through the fallback, so without this check
// the run would print a normal row. The LiPS scheduler is returned for
// callers that read its counters; it is nil for the other schedulers.
func (cfg Config) run(r runner, label string, c *cluster.Cluster, w *workload.Workload, p *hdfs.Placement, opts sim.Options) (*sim.Result, *sched.LiPS, error) {
	s := r.make()
	res, err := sim.New(c, w, p, s, cfg.simOptions(opts, label)).Run()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", label, err)
	}
	l, _ := s.(*sched.LiPS)
	if l != nil && l.Err != nil {
		return nil, nil, fmt.Errorf("%s: %w", label, l.Err)
	}
	return res, l, nil
}

// simOptions decorates a run's simulator options with the suite's
// tracing configuration, labeling the run for multi-run traces.
func (cfg Config) simOptions(o sim.Options, label string) sim.Options {
	if cfg.Tracer != nil && cfg.Tracer.Enabled() {
		o.Tracer = cfg.Tracer
		o.SampleIntervalSec = cfg.SampleIntervalSec
		o.TraceLabel = label
	}
	o.Metrics = cfg.Metrics
	return o
}

// testbed builds the paper's 20-node testbed with a fracC1 share of
// c1.medium nodes — 0.5 is Fig. 6's setting (iii), the one every study
// after Fig. 6 reuses — and the Table IV job set (quarter scale in Quick
// mode). Faithful to the paper's procedure ("we gradually add a
// different type of node (c1.medium) to the cluster"), the input blocks
// are shuffled over the original m1.medium nodes' stores only, as HDFS
// ingest onto the pre-expansion cluster would: freshly added c1.medium
// nodes hold no blocks, so locality-driven baselines keep computing at
// m1.medium prices while LiPS relocates data toward the cheap cycles.
func testbed(cfg Config, fracC1 float64) (*cluster.Cluster, *workload.Workload, *hdfs.Placement) {
	c := cluster.Paper20(fracC1)
	var stores []cluster.StoreID
	for _, n := range c.Nodes {
		if n.Type == "m1.medium" && n.Store != cluster.None {
			stores = append(stores, n.Store)
		}
	}
	if len(stores) == 0 {
		stores = c.StoreIDs()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var w *workload.Workload
	if cfg.Quick {
		// Same mix at quarter scale (402 tasks, 25 GB).
		pick := func() cluster.StoreID { return stores[rng.Intn(len(stores))] }
		const gb = 1024.0
		wb := workload.NewBuilder()
		wb.AddNoInputJob("J1", "user1", 1, workload.PiTaskCPUSec, 0)
		wb.AddNoInputJob("J2", "user1", 1, workload.PiTaskCPUSec, 0)
		wb.AddInputJob("J3", "user2", workload.WordCount, 2.5*gb, pick(), 0)
		wb.AddInputJob("J4", "user2", workload.WordCount, 2.5*gb, pick(), 0)
		wb.AddInputJob("J5", "user3", workload.Grep, 5*gb, pick(), 0)
		wb.AddInputJob("J6", "user3", workload.Grep, 5*gb, pick(), 0)
		wb.AddInputJob("J7", "user3", workload.Grep, 5*gb, pick(), 0)
		wb.AddInputJob("J8", "user4", workload.Stress2, 2.5*gb, pick(), 0)
		wb.AddInputJob("J9", "user4", workload.Stress2, 2.5*gb, pick(), 0)
		w = wb.Build()
	} else {
		w = workload.PaperJobSet(rng, stores)
	}
	p := w.Placement()
	p.Shuffle(rand.New(rand.NewSource(cfg.Seed+1)), stores)
	return c, w, p
}

func (cfg Config) withDefaults() Config {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Trials == 0 {
		if cfg.Quick {
			cfg.Trials = 2
		} else {
			cfg.Trials = 5
		}
	}
	if cfg.FaultCrashes == 0 {
		cfg.FaultCrashes = 2
	}
	if cfg.FaultSeed == 0 {
		cfg.FaultSeed = cfg.Seed
	}
	return cfg
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
