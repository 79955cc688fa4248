// Command lips-balance demonstrates the HDFS balancer on a synthetic
// cluster: it skews a workload's block placement, runs hdfs.Balance, and
// prints per-store utilization before and after plus the transfer bill the
// moves would incur. With -trace and -listen the moves go to the trace and
// to the live lips_sim_* move counters, as a lips-sim -balance run's do.
//
// Usage:
//
//	lips-balance [-cluster paper20|paper100] [-tasks 600] [-threshold 0.1] [-seed 1]
//	             [-trace FILE] [-listen :8080]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/sim"
	"lips/internal/trace"
	"lips/internal/workload"
)

func main() {
	clusterKind := flag.String("cluster", "paper20", "paper20 or paper100")
	tasks := flag.Int("tasks", 3000, "map tasks of synthetic data to place")
	threshold := flag.Float64("threshold", 0.02, "target utilization band around the mean")
	seed := flag.Int64("seed", 1, "random seed")
	cli := obs.NewCLI("lips-balance", obs.FlagListen|obs.FlagTrace)
	cli.Start()
	cli.Logger.Debug("balance config", "cluster", *clusterKind, "tasks", *tasks,
		"threshold", *threshold, "seed", *seed)
	cli.ExitOn(cli.Stop(run(os.Stdout, *clusterKind, *tasks, *threshold, *seed, cli)))
}

// run balances one skewed placement; cli carries the trace file and the
// live registry the shared flags selected.
func run(out *os.File, clusterKind string, tasks int, threshold float64, seed int64, cli *obs.CLI) error {
	rng := rand.New(rand.NewSource(seed))
	c, err := cluster.ByName(clusterKind, 0.5, 0, rng)
	if err != nil || (clusterKind != "paper20" && clusterKind != "paper100") {
		return fmt.Errorf("unknown cluster %q (want paper20 or paper100)", clusterKind)
	}
	// Skewed ingest: all data lands in one zone's stores.
	var hot []cluster.StoreID
	for _, n := range c.Nodes {
		if n.Zone == c.Zones[0] {
			hot = append(hot, n.Store)
		}
	}
	w := workload.Random(rng, hot, workload.RandomSpec{TotalTasks: tasks})
	p := w.Placement()
	p.Shuffle(rng, hot)

	show := func(label string) {
		used := p.UsedMB()
		fmt.Fprintf(out, "%s:\n", label)
		for _, zone := range c.Zones {
			mb, capMB := 0.0, 0.0
			for _, s := range c.Stores {
				if s.Zone != zone {
					continue
				}
				mb += used[s.ID]
				capMB += s.CapacityMB
			}
			fmt.Fprintf(out, "  %-12s %8.1f GB stored (%.1f%% of zone capacity)\n",
				zone, mb/1024, 100*mb/capMB)
		}
	}
	show("before balancing")

	moves := hdfs.Balance(c, p, threshold)
	bill := cost.Money(0)
	for _, m := range moves {
		mb := p.Object(m.Object).BlockSizeMB(m.Block)
		bill += c.SSPerGB(m.From, m.To).MulFloat(mb / 1024)
	}
	fmt.Fprintf(out, "\nbalancer: %d block moves, transfer bill %v\n\n", len(moves), bill)
	show("after balancing")
	sim.NoteMoves(cli.Trace, cli.Registry, 0, p, moves, trace.MoveBalance)
	return nil
}
