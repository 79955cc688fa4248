// Tracereplay: synthesize a SWIM-like Facebook day, round-trip it through
// the TSV trace codec, and replay it on the paper's 100-node testbed
// under all three schedulers — the Fig. 9/10 experiment as a program.
//
//	go run ./examples/tracereplay [-jobs 80] [-trace file.tsv]
//
// With -trace, the workload is loaded from an existing TSV (written by
// this tool or converted from a SWIM trace) instead of synthesized.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"lips/internal/cluster"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/workload"
)

func main() {
	jobs := flag.Int("jobs", 80, "jobs to synthesize when no -trace is given")
	tracePath := flag.String("trace", "", "replay this TSV trace instead of synthesizing")
	save := flag.String("save", "", "also write the synthesized trace to this path")
	flag.Parse()

	c := cluster.Paper100()
	stores := make([]cluster.StoreID, len(c.Stores))
	for i := range stores {
		stores[i] = cluster.StoreID(i)
	}

	load := func() *workload.Workload {
		rng := rand.New(rand.NewSource(99))
		if *tracePath != "" {
			f, err := os.Open(*tracePath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w, err := workload.ReadTrace(f, rng, stores)
			if err != nil {
				log.Fatal(err)
			}
			return w
		}
		w := workload.SWIM(rng, stores, workload.SWIMSpec{Jobs: *jobs, DurationSec: 6 * 3600})
		// Round-trip through the codec to prove the format is lossless.
		var buf bytes.Buffer
		if err := workload.WriteTrace(&buf, w); err != nil {
			log.Fatal(err)
		}
		if *save != "" {
			if err := os.WriteFile(*save, buf.Bytes(), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("trace written to %s\n", *save)
		}
		w2, err := workload.ReadTrace(&buf, rand.New(rand.NewSource(99)), stores)
		if err != nil {
			log.Fatal(err)
		}
		return w2
	}

	w := load()
	fmt.Printf("replaying %d jobs / %d map tasks / %.1f GB on %d nodes\n",
		len(w.Jobs), w.TotalTasks(), w.TotalInputMB()/1024, len(c.Nodes))
	fmt.Println("(map stages only: a reduce stage is a job gated by sim.Options.Deps)")
	fmt.Println()

	fmt.Println("scheduler        cost       makespan    Σ job time")
	var defaultCost float64
	for _, name := range []string{"default", "delay", "lips"} {
		var s sim.Scheduler
		opts := sim.Options{}
		switch name {
		case "default":
			s = sched.NewFIFO()
		case "delay":
			s = sched.NewDelay()
		case "lips":
			s = sched.NewLiPS(600)
			opts.TaskTimeoutSec = 1200
		}
		w := load()
		rng := rand.New(rand.NewSource(100))
		p := w.Placement()
		p.Shuffle(rng, stores)
		r, err := sim.New(c, w, p, s, opts).Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %-10v %7.0f s   %8.0f s\n", r.Scheduler, r.TotalCost(), r.Makespan, r.SumJobSec)
		if name == "default" {
			defaultCost = r.TotalCost().ToDollars()
		}
		if name == "lips" {
			fmt.Printf("\nLiPS reduction vs default: %.0f%% (paper Fig. 9: 68–69%%)\n",
				100*(1-r.TotalCost().ToDollars()/defaultCost))
		}
	}
}
