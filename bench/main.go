// Command bench is the repository's benchmark: six workloads that each
// load one layer of the system, measured end to end with tracing off and,
// in a separate pass, layer by layer from outside with bench-side spans.
// It measures from the program's public surface only and changes nothing
// outside bench/. See README.md for the workloads, the metric glossary
// and the hazards found while sizing them.
//
// One run of one workload, as the accepting harness invokes it:
//
//	bash bench/run.sh --workload stream-1k-wide --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the run as one JSON object. With
// no --workload every workload runs in turn; --passes, --out and
// --baseline record result sets for bench/cmp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"lips/bench/stat"
)

// minRounds is how often a run sets up at least: setup_s is a median, and
// every repetition after the first is a determinism check.
const minRounds = 3

const (
	outDir       = "bench/out"
	baselineFile = "bench/baseline.json"
	minBaseline  = 5 // passes a baseline needs before its quartiles mean anything
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		passes   = flag.Int("passes", 1, "repeat the selected workloads this many times, on seeds seed, seed+1, ...")
		out      = flag.String("out", "", "append every run to this result set (JSON lines), for bench/cmp")
		baseline = flag.Bool("baseline", false, "record "+baselineFile+": needs a clean tree and at least 5 passes")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *passes, *out, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, passes int, out string, baseline bool) error {
	selected := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workloadDef{w}
	}
	if seconds <= 0 || passes < 1 {
		return fmt.Errorf("--seconds and --passes must be positive")
	}
	var head string
	if baseline {
		if passes < minBaseline || name != "all" || traced {
			return fmt.Errorf("--baseline needs --passes %d or more, every workload and the untraced pass", minBaseline)
		}
		var err error
		if head, err = cleanTree(); err != nil {
			return err
		}
	}
	var sink *os.File
	if out != "" {
		var err error
		if sink, err = os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
			return err
		}
		defer sink.Close() // every line is written and checked below
	}

	var runs []stat.Run
	allCorrect := true
	var last []byte
	for pass := 0; pass < passes; pass++ {
		for _, w := range selected {
			res, err := runWorkload(w, seed+int64(pass), seconds, traced, 1)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printReadings(w.name, traced, res)
			rec := stat.Run{Workload: w.name, Seed: seed + int64(pass), Trace: traced,
				Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}
			runs = append(runs, rec)
			allCorrect = allCorrect && res.correct
			if sink != nil {
				line, err := json.Marshal(rec)
				if err != nil {
					return err
				}
				if _, err := sink.Write(append(line, '\n')); err != nil {
					return err
				}
			}
			// The harness's line carries exactly its four keys.
			rec.Workload, rec.Seed, rec.Trace = "", 0, false
			if last, err = json.Marshal(rec); err != nil {
				return err
			}
		}
	}
	if baseline {
		if err := writeBaseline(head, passes, runs); err != nil {
			return err
		}
	}
	fmt.Println(string(last))
	if !allCorrect {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// runWorkload runs rounds of w until seconds of timed region have been
// measured, and at least minRounds. The traced pass alternates untraced
// and traced rounds, so that the overhead of tracing is measured within
// one process on one set of inputs.
func runWorkload(w workloadDef, seed int64, seconds float64, traced bool, scale float64) (*result, error) {
	var plain, withSpans []*round
	var tracers []*tracer
	var replayIn *replayInput // the last traced round's
	var timed time.Duration
	for i := 0; i < minRounds || timed.Seconds() < seconds; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer(fmt.Sprintf("round%d", i))
		}
		r, err := w.round(seed, scale, tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		r.heapMB = retainedHeapMB(r.keep)
		// Let go of the round's cluster and jobs, or every later round's
		// retained heap would count them too.
		if tr != nil {
			replayIn = r.replay
		}
		r.keep, r.replay = nil, nil
		if r.busy <= 0 {
			r.busy = r.wall
		}
		timed += r.wall
		if tr != nil {
			names := byName(tr.spans)
			for _, d := range names["sim.AddJob"] {
				r.samples["addjob_us"] = append(r.samples["addjob_us"], d*1e3)
			}
			r.samples["step_ms"] = names["sim.StepUntil"]
			r.samples["epoch_ms"] = r.epochMS
			r.fillProcessLayer()
			withSpans, tracers = append(withSpans, r), append(tracers, tr)
		} else {
			plain = append(plain, r)
		}
	}

	res := &result{metrics: make(map[string]stat.Reading)}
	all := append(append([]*round(nil), plain...), withSpans...)
	for _, r := range all {
		res.attempted += r.attempted
		res.failed += r.failed
		res.errs = append(res.errs, r.errs...)
		if w.deterministic && !sameBits(r.out, all[0].out) {
			res.errs = append(res.errs, fmt.Sprintf("simulated outputs differ between rounds on the same inputs: %+v vs %+v", all[0].out, r.out))
		}
	}

	if !traced {
		values := endToEndReadings(plain)
		for _, m := range endToEnd {
			res.metrics[m.name] = stat.Reading{Value: values[m.name], Unit: m.unit}
		}
	} else {
		layer := perLayerReadings(withSpans)
		// Fastest round against fastest round: with two or three rounds a
		// side, the minimum is the estimate least moved by a disturbed one.
		wall := func(r *round) float64 { return r.wall.Seconds() }
		layer["trace.overhead_pct"] = 100 * (slices.Min(over(withSpans, wall))/slices.Min(over(plain, wall)) - 1)
		if replayIn != nil {
			if err := replay(*replayIn, int(layer["sched.lp_jobs_p50"]), layer); err != nil {
				res.errs = append(res.errs, err.Error())
			}
		}
		if busy := stat.Median(over(withSpans, func(r *round) float64 { return ms(r.busy) })); busy > 0 {
			layer["sched.solve_share"] = layer["sched.solve_ms_total"] / busy
		}
		for _, m := range perLayer {
			res.metrics[m.name] = stat.Reading{Value: layer[m.name], Unit: m.unit}
		}
		if scale == 1 {
			if err := writeSpans(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed), tracers); err != nil {
				return nil, err
			}
		}
	}
	res.correct = len(res.errs) == 0
	if !res.correct && res.failed == 0 {
		res.failed = len(res.errs)
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", w.name, e)
	}
	return res, nil
}

// printReadings prints every metric of a run by name, with its unit.
func printReadings(workload string, traced bool, res *result) {
	pass := "end-to-end"
	if traced {
		pass = "per-layer"
	}
	fmt.Printf("%s (%s, correct=%t, attempted=%d, failed=%d)\n", workload, pass, res.correct, res.attempted, res.failed)
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
}

// cleanTree refuses a baseline recorded on anything but a commit plus the
// files this benchmark owns, and returns that commit.
func cleanTree() (string, error) {
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return "", fmt.Errorf("git status: %w", err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(status), "\n"), "\n") {
		if len(line) < 4 {
			continue
		}
		path := line[3:]
		switch {
		case strings.HasPrefix(path, "bench/"), path == "BENCHMARK.json", path == ".gitignore",
			path == "CHANGES.md", path == "ISSUE.md", path == "REVIEW.md":
		default:
			return "", fmt.Errorf("tree is dirty outside the benchmark: %s", path)
		}
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-parse: %w", err)
	}
	return strings.TrimSpace(string(head)), nil
}

// writeBaseline records the medians and quartiles of a result set with
// what it was measured on.
func writeBaseline(head string, passes int, runs []stat.Run) error {
	doc := struct {
		GitHead   string                             `json:"git_head"`
		NProc     int                                `json:"nproc"`
		GoVersion string                             `json:"go_version"`
		Passes    int                                `json:"passes"`
		Results   map[string]map[string]stat.Summary `json:"results"`
	}{head, runtime.NumCPU(), runtime.Version(), passes, stat.Summarize(runs)}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(baselineFile, append(b, '\n'), 0o644)
}
