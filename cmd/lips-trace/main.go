// Command lips-trace inspects a JSONL run trace produced by
// lips-sim/lips-bench -trace: per run it prints the cost-over-time
// series, the epoch LP timeline, the slowest tasks and a per-node
// utilization table.
//
// Usage:
//
//	lips-trace [-top 10] [-csv FILE] [-validate] [-metrics] [-by-job N] [-audit] trace.jsonl
//
// -csv exports the sampled time series (cost by category in microcents,
// queue depth, slot counts, locality mix) as CSV; -validate only
// schema-checks the file and reports the event census; -metrics replays
// the trace through the live metrics observers and prints the resulting
// Prometheus text exposition — the lips_sim_*, lips_cost_* and
// lips_sched_* lines a lips-sim -listen scrape at the end of that run
// would show, cost counted per event up to the last one (lips_lp_* is
// live only). -by-job rolls charges up to the N most
// expensive jobs (with -csv, the full rollup is exported instead of the
// time series); -audit rebuilds the ledger from the money-bearing
// events and proves it, to the exact microcent, against every embedded
// sample snapshot — any drift exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"lips/internal/cost"
	"lips/internal/obs"
	"lips/internal/trace"
)

func main() {
	top := flag.Int("top", 10, "how many slowest tasks to list per run")
	csvPath := flag.String("csv", "", "write the sampled time series as CSV to this file")
	validate := flag.Bool("validate", false, "schema-check the trace and print the event census only")
	metrics := flag.Bool("metrics", false, "replay the trace into the metrics registry and print the Prometheus exposition")
	byJob := flag.Int("by-job", 0, "roll charges up to the N most expensive jobs per run (with -csv, export the full rollup)")
	audit := flag.Bool("audit", false, "rebuild the ledger from the events and reconcile it against every sample snapshot")
	cli := obs.NewCLI("lips-trace", 0)
	cli.Start()
	if flag.NArg() != 1 {
		cli.Usagef("usage: lips-trace [-top N] [-csv FILE] [-validate] [-metrics] [-by-job N] [-audit] trace.jsonl")
	}
	cli.Logger.Debug("trace config", "path", flag.Arg(0), "top", *top, "validate", *validate, "by_job", *byJob, "audit", *audit)
	cli.ExitOn(run(os.Stdout, flag.Arg(0), *top, *csvPath, *validate, *metrics, *byJob, *audit))
}

func run(out io.Writer, path string, top int, csvPath string, validateOnly, metricsOnly bool, byJob int, audit bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.ReadAll(f)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: empty trace", path)
	}

	if metricsOnly {
		reg := obs.NewRegistry()
		sink := obs.NewTraceSink(reg)
		for _, e := range events {
			sink.Emit(e)
		}
		return reg.WriteProm(out)
	}

	if validateOnly {
		census := make(map[trace.Kind]int)
		for _, e := range events {
			census[e.Kind]++
		}
		kinds := make([]string, 0, len(census))
		for k := range census {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		fmt.Fprintf(out, "%s: %d events valid\n", path, len(events))
		for _, k := range kinds {
			fmt.Fprintf(out, "  %-8s %d\n", k, census[trace.Kind(k)])
		}
		return nil
	}

	runs := splitRuns(events)

	if audit {
		for _, r := range runs {
			if err := auditRun(out, r); err != nil {
				return err
			}
		}
		return nil
	}

	if byJob > 0 {
		if csvPath != "" {
			if err := writeByJobCSV(csvPath, runs); err != nil {
				return err
			}
			fmt.Fprintf(out, "job rollup written to %s\n", csvPath)
		}
		for i, r := range runs {
			if i > 0 {
				fmt.Fprintln(out)
			}
			if err := printByJob(out, r, byJob); err != nil {
				return err
			}
		}
		return nil
	}

	if csvPath != "" {
		if err := writeCSV(csvPath, events); err != nil {
			return err
		}
		fmt.Fprintf(out, "time series written to %s\n\n", csvPath)
	}

	for i, r := range runs {
		if i > 0 {
			fmt.Fprintln(out)
		}
		printRun(out, r, top)
	}
	return nil
}

// writeCSV exports every sample event through the Sampler's CSV writer.
func writeCSV(path string, events []trace.Event) error {
	s := trace.NewSampler()
	for _, e := range events {
		s.Emit(e)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run groups one simulation's events: the stream from one run header
// (inclusive) to the next. Events before any header — e.g. a balancer
// trace — form a headerless run.
type runGroup struct {
	info   *trace.RunInfo
	events []trace.Event
}

func splitRuns(events []trace.Event) []runGroup {
	var runs []runGroup
	cur := runGroup{}
	for _, e := range events {
		if e.Kind == trace.KindRun {
			if cur.info != nil || len(cur.events) > 0 {
				runs = append(runs, cur)
			}
			cur = runGroup{info: e.Run}
			continue
		}
		cur.events = append(cur.events, e)
	}
	runs = append(runs, cur)
	return runs
}

func usd(uc int64) string { return cost.Money(uc).String() }

func printRun(out io.Writer, r runGroup, top int) {
	if r.info != nil {
		name := r.info.Scheduler
		if r.info.Label != "" {
			name = r.info.Label + " — " + name
		}
		fmt.Fprintf(out, "== run: %s (%d nodes, %d stores, %d jobs, %d tasks) ==\n",
			name, r.info.Nodes, r.info.Stores, r.info.Jobs, r.info.Tasks)
	} else {
		fmt.Fprintf(out, "== run: (no run header, %d events) ==\n", len(r.events))
	}

	var (
		samples []trace.Event
		epochs  []trace.Event
		dones   []trace.Event
		endT    float64
		kills   = map[string]int{}
		moves   = map[string]int{}
		faults  int
	)
	for _, e := range r.events {
		if e.T > endT {
			endT = e.T
		}
		switch e.Kind {
		case trace.KindSample:
			samples = append(samples, e)
		case trace.KindEpoch:
			epochs = append(epochs, e)
		case trace.KindDone:
			dones = append(dones, e)
		case trace.KindKill:
			kills[e.Task.Reason]++
		case trace.KindMove:
			moves[e.Move.Reason]++
		case trace.KindFault:
			faults++
		}
	}

	printCostOverTime(out, samples)
	printEpochs(out, epochs)
	printSlowest(out, dones, top)
	printNodeUtil(out, r.info, dones, endT)

	if len(kills) > 0 || len(moves) > 0 || faults > 0 {
		var parts []string
		for _, m := range []struct {
			label string
			byKey map[string]int
		}{{"kills", kills}, {"moves", moves}} {
			if len(m.byKey) == 0 {
				continue
			}
			keys := make([]string, 0, len(m.byKey))
			for k := range m.byKey {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			kv := make([]string, 0, len(keys))
			for _, k := range keys {
				kv = append(kv, fmt.Sprintf("%s=%d", k, m.byKey[k]))
			}
			parts = append(parts, fmt.Sprintf("%s: %s", m.label, strings.Join(kv, " ")))
		}
		if faults > 0 {
			parts = append(parts, fmt.Sprintf("faults injected: %d", faults))
		}
		fmt.Fprintf(out, "\n%s\n", strings.Join(parts, ";  "))
	}
}

// printCostOverTime renders up to 12 evenly spaced sample rows.
func printCostOverTime(out io.Writer, samples []trace.Event) {
	if len(samples) == 0 {
		return
	}
	fmt.Fprintln(out, "\ncost over time:")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  t\ttotal\tcpu\ttransfer\tplacement\trunning\tqueued\tpending\tfree slots")
	const maxRows = 12
	step := 1
	if len(samples) > maxRows {
		step = (len(samples) + maxRows - 1) / maxRows
	}
	for i := 0; i < len(samples); i += step {
		s := samples[i].Sample
		fmt.Fprintf(tw, "  %.0fs\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\n",
			samples[i].T, usd(s.TotalUC), usd(s.CPUUC), usd(s.TransferUC), usd(s.PlacementUC),
			s.Running, s.Queued, s.Pending, s.FreeSlots)
	}
	if last := len(samples) - 1; last%step != 0 {
		s := samples[last].Sample
		fmt.Fprintf(tw, "  %.0fs\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\n",
			samples[last].T, usd(s.TotalUC), usd(s.CPUUC), usd(s.TransferUC), usd(s.PlacementUC),
			s.Running, s.Queued, s.Pending, s.FreeSlots)
	}
	tw.Flush()
}

func printEpochs(out io.Writer, epochs []trace.Event) {
	if len(epochs) == 0 {
		return
	}
	fmt.Fprintln(out, "\nepoch timeline:")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  t\tepoch\tphase1\tjobs\tpending\titers\tlaunched\tdeferred\tmoves\tsolve")
	for _, e := range epochs {
		ep := e.Epoch
		solve := ""
		if ep.SolveMS > 0 {
			solve = fmt.Sprintf("%.1fms", ep.SolveMS)
		}
		fmt.Fprintf(tw, "  %.0fs\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			e.T, ep.Epoch, ep.Phase1, ep.Jobs, ep.Pending, ep.Iters,
			ep.Launched, ep.Deferred, ep.BlocksMoved, solve)
	}
	tw.Flush()
}

func printSlowest(out io.Writer, dones []trace.Event, top int) {
	if len(dones) == 0 || top <= 0 {
		return
	}
	sorted := append([]trace.Event(nil), dones...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return sorted[a].Task.DurSec > sorted[b].Task.DurSec
	})
	if len(sorted) > top {
		sorted = sorted[:top]
	}
	fmt.Fprintf(out, "\ntop %d slowest tasks:\n", len(sorted))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  task\tnode\tstore\twall\txfer\tcpu-sec\tcost\tfinished")
	for _, e := range sorted {
		t := e.Task
		name := fmt.Sprintf("j%d/t%d", t.Job, t.Task)
		if t.Speculative {
			name += " (spec)"
		}
		fmt.Fprintf(tw, "  %s\tnode-%d\t%d\t%.0fs\t%.0fs\t%.0f\t%s\t%.0fs\n",
			name, t.Node, t.Store, t.DurSec, t.XferSec, t.CPUSec, usd(t.CostUC), e.T)
	}
	tw.Flush()
}

func printNodeUtil(out io.Writer, info *trace.RunInfo, dones []trace.Event, endT float64) {
	if len(dones) == 0 || endT <= 0 {
		return
	}
	busy := map[int]float64{}
	count := map[int]int{}
	for _, e := range dones {
		busy[e.Task.Node] += e.Task.DurSec
		count[e.Task.Node]++
	}
	nodes := make([]int, 0, len(busy))
	for n := range busy {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	fmt.Fprintln(out, "\nper-node utilization (completed-attempt occupancy):")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  node\ttype\tzone\ttasks\tbusy\tutil")
	for _, n := range nodes {
		typ, zone, slots := "?", "?", 1
		if info != nil {
			if n >= 0 && n < len(info.Types) {
				typ = info.Types[n]
			}
			if n >= 0 && n < len(info.Zones) {
				zone = info.Zones[n]
			}
			if n >= 0 && n < len(info.Slots) {
				slots = info.Slots[n]
			}
		}
		util := busy[n] / (float64(slots) * endT)
		fmt.Fprintf(tw, "  node-%d\t%s\t%s\t%d\t%.0fs\t%.1f%%\n",
			n, typ, zone, count[n], busy[n], 100*util)
	}
	tw.Flush()
}
