// Command lips-sim runs one MapReduce scheduling simulation and prints
// the dollar cost, makespan, locality and utilization.
//
// Usage:
//
//	lips-sim [-cluster paper20|paper100|random] [-frac-c1 0.5] [-nodes 40]
//	         [-workload paper|swim|random] [-jobs 60] [-tasks 400]
//	         [-scheduler fifo|delay|fair|lips] [-epoch 600]
//	         [-speculative] [-bill-occupancy] [-seed 1] [-v]
//	         [-faults 0] [-fault-stores 0] [-fault-slowdowns 0] [-fault-seed 0]
//	         [-trace FILE] [-trace-format jsonl|chrome] [-sample-interval 60]
//	         [-trace-timings] [-listen :8080]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// Examples:
//
//	lips-sim -cluster paper20 -frac-c1 0.5 -workload paper -scheduler lips
//	lips-sim -cluster paper100 -workload swim -jobs 400 -scheduler delay
//	lips-sim -scheduler lips -trace run.jsonl            # inspect with lips-trace
//	lips-sim -scheduler lips -trace run.json -trace-format chrome  # open in Perfetto
//	lips-sim -scheduler lips -workload swim -listen :8080  # scrape /metrics live
//
// SIGINT or SIGTERM stops the run between two simulation steps; the trace,
// the profiles and the listener are closed as after a finished run, and
// lips-sim exits 1 with "interrupted".
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/trace"
	"lips/internal/workload"
)

func main() {
	var (
		clusterKind = flag.String("cluster", "paper20", "paper20, paper100 or random")
		fracC1      = flag.Float64("frac-c1", 0.5, "fraction of c1.medium nodes for -cluster paper20")
		nodes       = flag.Int("nodes", 40, "node count for -cluster random")
		wlKind      = flag.String("workload", "paper", "paper, swim or random")
		jobs        = flag.Int("jobs", 60, "job count for -workload swim")
		tasks       = flag.Int("tasks", 400, "task count for -workload random")
		scale       = flag.Int("scale", 0, "large-cluster shortcut: random cluster with N nodes and 100×N random tasks (overrides -cluster and -workload; -tasks still wins if set)")
		scheduler   = flag.String("scheduler", "lips", "fifo, delay, fair, lips or scale")
		epoch       = flag.Float64("epoch", 600, "LiPS epoch in seconds")
		speculative = flag.Bool("speculative", false, "enable speculative execution")
		occupancy   = flag.Bool("bill-occupancy", false, "bill wall-clock slot occupancy instead of CPU seconds")
		sharedLinks = flag.Bool("shared-links", false, "transfers contend for zone-pair bandwidth (processor sharing)")
		balance     = flag.Bool("balance", false, "run the HDFS balancer on the initial placement first")
		seed        = flag.Int64("seed", 1, "random seed")
		verbose     = flag.Bool("v", false, "print per-job and per-node detail")

		faults    = flag.Int("faults", 0, "inject this many node crash+recovery pairs")
		faultSt   = flag.Int("fault-stores", 0, "inject this many store data losses")
		faultSlow = flag.Int("fault-slowdowns", 0, "inject this many straggler slowdown windows")
		faultSeed = flag.Int64("fault-seed", 0, "fault-plan seed (0 = the -seed value)")

		traceTimings = flag.Bool("trace-timings", false, "include wall-clock LP timings in epoch events (machine-dependent)")
	)
	cli := obs.NewCLI("lips-sim", obs.FlagProfiles|obs.FlagListen|obs.FlagTrace|obs.FlagTraceFormat)
	cli.Start()
	if *nodes < 1 {
		cli.Usagef("-nodes must be at least 1, got %d", *nodes)
	}
	if _, err := sched.ByName(*scheduler, *epoch); err != nil {
		cli.Usagef("%v", err)
	}
	if *scale > 0 {
		*clusterKind, *nodes, *wlKind = "random", *scale, "random"
		tasksSet := false
		flag.Visit(func(f *flag.Flag) { tasksSet = tasksSet || f.Name == "tasks" })
		if !tasksSet {
			*tasks = 100 * *scale
		}
	}
	cfg := config{
		Cluster: *clusterKind, FracC1: *fracC1, Nodes: *nodes,
		Workload: *wlKind, Jobs: *jobs, Tasks: *tasks,
		Scheduler: *scheduler, Epoch: *epoch,
		Speculative: *speculative, BillOccupancy: *occupancy,
		SharedLinks: *sharedLinks, Balance: *balance,
		Seed: *seed, Verbose: *verbose,
		FaultCrashes: *faults, FaultStores: *faultSt, FaultSlowdowns: *faultSlow,
		FaultSeed:    *faultSeed,
		TraceTimings: *traceTimings,
	}
	cli.Logger.Debug("run config",
		"cluster", cfg.Cluster, "nodes", cfg.Nodes, "workload", cfg.Workload,
		"jobs", cfg.Jobs, "scheduler", cfg.Scheduler, "seed", cfg.Seed)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	cli.ExitOn(cli.Stop(runCfg(cfg, cli, stop)))
}

// errInterrupted is the run a signal stopped.
var errInterrupted = errors.New("interrupted")

// config carries one simulation's command-line settings.
type config struct {
	Cluster   string
	FracC1    float64
	Nodes     int
	Workload  string
	Jobs      int
	Tasks     int
	Scheduler string
	Epoch     float64

	Speculative   bool
	BillOccupancy bool
	SharedLinks   bool
	Balance       bool

	Seed    int64
	Verbose bool

	FaultCrashes   int
	FaultStores    int
	FaultSlowdowns int
	FaultSeed      int64

	TraceTimings bool
}

// runCfg runs one simulation; cli carries the trace file, the live
// registry and the sampling interval the shared flags selected. A value on
// stop ends the run between two steps with errInterrupted.
func runCfg(cfg config, cli *obs.CLI, stop <-chan os.Signal) error {
	rng := rand.New(rand.NewSource(cfg.Seed))

	c, err := cluster.ByName(cfg.Cluster, cfg.FracC1, cfg.Nodes, rng)
	if err != nil {
		return err
	}
	stores := c.StoreIDs()

	var w *workload.Workload
	switch cfg.Workload {
	case "paper":
		w = workload.PaperJobSet(rng, stores)
	case "swim":
		w = workload.SWIM(rng, stores, workload.SWIMSpec{Jobs: cfg.Jobs, DurationSec: 24 * 3600})
	case "random":
		w = workload.Random(rng, stores, workload.RandomSpec{TotalTasks: cfg.Tasks})
	default:
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}

	placement := w.Placement()
	placement.Shuffle(rng, stores)
	if cfg.Balance {
		moves := hdfs.Balance(c, placement, 0.1)
		sim.NoteMoves(cli.Trace, cli.Registry, 0, placement, moves, trace.MoveBalance)
		fmt.Printf("balancer: %d blocks relocated before scheduling\n", len(moves))
	}

	opts := sim.Options{
		Speculative: cfg.Speculative, BillOccupancy: cfg.BillOccupancy,
		SharedLinks: cfg.SharedLinks,
	}
	if cli.Trace != nil {
		opts.Tracer = cli.Trace
		opts.SampleIntervalSec = cli.SampleInterval
	}
	if cli.Registry != nil {
		opts.Metrics = cli.Registry
		opts.MetricsSampleSec = cli.SampleInterval
	}
	if cfg.FaultCrashes > 0 || cfg.FaultStores > 0 || cfg.FaultSlowdowns > 0 {
		fseed := cfg.FaultSeed
		if fseed == 0 {
			fseed = cfg.Seed
		}
		opts.Faults = sim.RandomFaultPlan(fseed, c, sim.FaultSpec{
			Crashes: cfg.FaultCrashes, StoreLosses: cfg.FaultStores, Slowdowns: cfg.FaultSlowdowns,
		})
	}
	s, err := sched.ByName(cfg.Scheduler, cfg.Epoch)
	if err != nil {
		return err
	}
	lips, _ := s.(*sched.LiPS)
	if lips != nil {
		lips.TraceTimings = cfg.TraceTimings
		opts.TaskTimeoutSec = 1200
	}

	fmt.Printf("cluster: %s (%d nodes, %.0f ECU, %d zones)\n",
		cfg.Cluster, len(c.Nodes), c.TotalECU(), len(c.Zones))
	fmt.Printf("workload: %s (%d jobs, %d tasks, %.1f GB input, %.0f ECU-sec demand)\n",
		cfg.Workload, len(w.Jobs), w.TotalTasks(), w.TotalInputMB()/1024, w.TotalCPUSec())

	result, err := drive(sim.New(c, w, placement, s, opts), stop)
	if err = cli.CloseTrace(err); err != nil {
		return err
	}
	if lips != nil {
		if lips.Err != nil {
			return fmt.Errorf("lips scheduler: %w", lips.Err)
		}
		fmt.Printf("lips: %d epochs, %d LP iterations, %v total solve time, %d blocks relocated\n",
			lips.Epochs, lips.LPIters, lips.SolveTime, lips.BlocksMoved)
	}

	fmt.Printf("\nscheduler: %s\n", result.Scheduler)
	fmt.Printf("total cost: %v (%s)\n", result.TotalCost(), result.Cost)
	fmt.Printf("makespan: %.0f s;  Σ job time: %.0f s\n", result.Makespan, result.SumJobSec)
	fmt.Printf("locality: %.1f%% node-local (%d local / %d zone / %d remote / %d no-input)\n",
		100*result.Locality.LocalFraction(),
		result.Locality.Count(sim.NodeLocal), result.Locality.Count(sim.ZoneLocal),
		result.Locality.Count(sim.Remote), result.Locality.Count(sim.NoInput))
	fmt.Printf("utilization: %.1f%%;  fairness (Jain over users): %.3f\n",
		100*result.Utilization, result.Fairness)
	if result.Faults.Any() {
		fmt.Printf("faults: %s; failure cost %v\n", result.Faults, result.Cost.Category(cost.CatFault))
	}

	if cfg.Verbose {
		fmt.Println("\nper-job completion:")
		for j, done := range result.JobDone {
			fmt.Printf("  %-24s arrive=%8.0fs done=%8.0fs cost=%v\n",
				w.Jobs[j].Name, w.Jobs[j].ArrivalSec, done, result.Cost.Job(w.Jobs[j].Name))
		}
		fmt.Println("\nper-node accumulated CPU time (ECU-seconds):")
		ids := result.NodeCPU.Nodes()
		sort.Slice(ids, func(a, b int) bool {
			return result.NodeCPU.Of(ids[a]) > result.NodeCPU.Of(ids[b])
		})
		for _, n := range ids {
			nd := c.Nodes[n]
			fmt.Printf("  node-%-3d %-10s %-12s %8.0f\n", n, nd.Type, nd.Zone, result.NodeCPU.Of(n))
		}
	}
	return nil
}

// drive runs s as Sim.Run does, on this goroutine, and returns
// errInterrupted at the first step boundary after a value arrives on stop.
func drive(s *sim.Sim, stop <-chan os.Signal) (*sim.Result, error) {
	if err := s.Start(); err != nil {
		return nil, err
	}
	for t, ok := s.NextEventAt(); ok; t, ok = s.NextEventAt() {
		select {
		case <-stop:
			return nil, errInterrupted
		default:
		}
		if err := s.StepUntil(t); err != nil {
			return nil, err
		}
	}
	return s.Finish()
}
