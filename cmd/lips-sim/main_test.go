package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"lips/internal/obs"
	"lips/internal/trace"
)

// run is runCfg with the settings most tests vary, positionally.
func run(clusterKind string, fracC1 float64, nodes int, wlKind string, jobs, tasks int,
	scheduler string, epoch float64, speculative, occupancy bool, seed int64, verbose bool) error {
	return runCfg(config{
		Cluster: clusterKind, FracC1: fracC1, Nodes: nodes,
		Workload: wlKind, Jobs: jobs, Tasks: tasks,
		Scheduler: scheduler, Epoch: epoch,
		Speculative: speculative, BillOccupancy: occupancy,
		Seed: seed, Verbose: verbose,
	}, &obs.CLI{}, nil)
}

func TestRunAllSchedulers(t *testing.T) {
	for _, sched := range []string{"fifo", "delay", "fair", "lips"} {
		if err := run("paper20", 0.5, 0, "random", 0, 60, sched, 400, false, false, 1, false); err != nil {
			t.Errorf("%s: %v", sched, err)
		}
	}
}

func TestRunClusterKinds(t *testing.T) {
	if err := run("random", 0, 12, "random", 0, 40, "fifo", 0, false, false, 2, true); err != nil {
		t.Errorf("random cluster: %v", err)
	}
	if err := run("paper100", 0, 0, "swim", 20, 0, "delay", 0, false, false, 3, false); err != nil {
		t.Errorf("paper100/swim: %v", err)
	}
}

func TestRunPaperWorkloadOptions(t *testing.T) {
	if err := run("paper20", 0.25, 0, "paper", 0, 0, "lips", 800, false, true, 1, false); err != nil {
		t.Errorf("paper workload: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("moon-base", 0, 0, "random", 0, 10, "fifo", 0, false, false, 1, false); err == nil {
		t.Error("unknown cluster accepted")
	}
	if err := run("paper20", 0, 0, "nope", 0, 10, "fifo", 0, false, false, 1, false); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run("paper20", 0, 0, "random", 0, 10, "nope", 0, false, false, 1, false); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if err := run("paper20", 0, 0, "random", 0, 10, "lips", math.NaN(), false, false, 1, false); err == nil {
		t.Error("NaN LiPS epoch accepted")
	}
}

func TestRunCfgExtras(t *testing.T) {
	cfg := config{
		Cluster: "paper20", FracC1: 0.5, Workload: "random", Tasks: 60,
		Scheduler: "fifo", SharedLinks: true, Balance: true, Seed: 4,
	}
	if err := runCfg(cfg, &obs.CLI{}, nil); err != nil {
		t.Fatal(err)
	}
	// -trace-format chrome writes one JSON array Perfetto can load (the
	// crash supplies the instant events).
	cfg.FaultCrashes = 1
	path := t.TempDir() + "/run.json"
	sink, err := trace.NewSink(path, "chrome")
	if err != nil {
		t.Fatal(err)
	}
	if err := runCfg(cfg, &obs.CLI{Trace: sink, SampleInterval: 60}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []struct{ Ph string }
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	seen := map[string]bool{}
	for _, r := range records {
		seen[r.Ph] = true
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if !seen[ph] {
			t.Errorf("chrome trace has no %q records", ph)
		}
	}
}

// TestRunInterrupted: a signal already queued stops the run before its
// first step with errInterrupted, and the trace is still closed — flushed
// and readable — as after a finished run.
func TestRunInterrupted(t *testing.T) {
	path := t.TempDir() + "/run.jsonl"
	sink, err := trace.NewSink(path, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	stop <- os.Interrupt
	cli := &obs.CLI{Trace: sink, SampleInterval: 60}
	cfg := config{Cluster: "paper20", FracC1: 0.5, Workload: "random", Tasks: 60, Scheduler: "lips", Epoch: 400, Seed: 1}
	if err := runCfg(cfg, cli, stop); !errors.Is(err, errInterrupted) {
		t.Fatalf("runCfg: %v, want %v", err, errInterrupted)
	}
	if cli.Trace != nil {
		t.Error("the trace was left open")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadAll(f)
	if err != nil || len(events) == 0 {
		t.Fatalf("interrupted trace: %d events, %v", len(events), err)
	}
}
