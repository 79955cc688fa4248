package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"lips/internal/trace"
)

// updateGolden rewrites testdata/metrics.golden from the current output:
// go test ./cmd/lips-trace -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// writeTrace writes a small synthetic run trace and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := t.TempDir() + "/run.jsonl"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewJSONL(f)
	for _, e := range []trace.Event{
		{T: 0, Kind: trace.KindRun, Run: &trace.RunInfo{
			Scheduler: "lips(e=600s)", Nodes: 2, Stores: 2, Jobs: 1, Tasks: 3,
			Slots: []int{2, 2}, Types: []string{"m1.medium", "c1.medium"},
			Zones: []string{"us-east-1a", "us-east-1b"}, Label: "unit"}},
		{T: 0, Kind: trace.KindSample, Sample: &trace.SampleInfo{Pending: 3, FreeSlots: 4, LiveSlots: 4}},
		{T: 10, Kind: trace.KindEnqueue, Task: &trace.TaskInfo{Job: 0, Task: 0, Node: -1, Store: 0}},
		{T: 600, Kind: trace.KindEpoch, Epoch: &trace.EpochInfo{
			Scheduler: "lips(e=600s)", Epoch: 1, Jobs: 1, Pending: 3, Iters: 7, Launched: 3,
			Rows: 9, Cols: 14, NNZ: 30, Solves: 2, WarmStarts: 2, Refactorizations: 3, ColGenRounds: 2, ColGenColumns: 5}},
		{T: 610, Kind: trace.KindLaunch, Task: &trace.TaskInfo{Job: 0, Task: 0, Node: 0, Store: 0, Attempt: 1, Locality: "node-local"}},
		{T: 700, Kind: trace.KindDone, Task: &trace.TaskInfo{
			Job: 0, Task: 0, Node: 0, Store: 0, Attempt: 1, DurSec: 90, XferSec: 5, CPUSec: 85, CostUC: 120000}},
		{T: 705, Kind: trace.KindDone, Task: &trace.TaskInfo{
			Job: 0, Task: 1, Node: 1, Store: 1, Attempt: 1, DurSec: 95, CPUSec: 95, CostUC: 130000}},
		{T: 706, Kind: trace.KindKill, Task: &trace.TaskInfo{Job: 0, Task: 2, Node: 1, Store: -1, Reason: "speculative", Speculative: true}},
		{T: 710, Kind: trace.KindMove, Move: &trace.MoveInfo{Object: 0, Block: 1, Src: 0, Dst: 1, MB: 64, Reason: "plan"}},
		{T: 720, Kind: trace.KindFault, Fault: &trace.FaultInfo{Kind: "node-down", Node: 1, Store: -1}},
		{T: 800, Kind: trace.KindSample, Sample: &trace.SampleInfo{Done: 2, FreeSlots: 4, LiveSlots: 4, TotalUC: 250000, CPUUC: 250000}},
	} {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReport(t *testing.T) {
	path := writeTrace(t)
	var out strings.Builder
	if err := run(&out, path, 5, "", false, false, 0, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"== run: unit — lips(e=600s) (2 nodes, 2 stores, 1 jobs, 3 tasks) ==",
		"cost over time:",
		"epoch timeline:",
		"top 2 slowest tasks:",
		"j0/t1", // slowest first
		"per-node utilization",
		"node-0",
		"m1.medium",
		"kills: speculative=1",
		"moves: plan=1",
		"faults injected: 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// Slowest task (95s) must be listed before the 90s one.
	if strings.Index(got, "j0/t1") > strings.Index(got, "j0/t0") {
		t.Error("slowest tasks not sorted by duration")
	}
}

func TestRunValidate(t *testing.T) {
	path := writeTrace(t)
	var out strings.Builder
	if err := run(&out, path, 5, "", true, false, 0, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "11 events valid") {
		t.Errorf("validate census wrong:\n%s", got)
	}
	for _, kind := range []string{"run", "sample", "done", "kill", "move", "fault", "epoch"} {
		if !strings.Contains(got, kind) {
			t.Errorf("census missing kind %q:\n%s", kind, got)
		}
	}
}

func TestRunCSV(t *testing.T) {
	path := writeTrace(t)
	csvPath := t.TempDir() + "/series.csv"
	var out strings.Builder
	if err := run(&out, path, 5, csvPath, false, false, 0, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 { // header + 2 samples
		t.Fatalf("want 3 CSV lines, got %d:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "t_sec,total_uc,") {
		t.Errorf("bad CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "800,250000,") {
		t.Errorf("bad CSV row %q", lines[2])
	}
}

// TestRunMetricsGolden pins the -metrics exposition byte-for-byte: the
// replay sink pre-registers every family with its label children at zero,
// and the exposition writer sorts families and series, so the output for a
// fixed trace is fully deterministic.
func TestRunMetricsGolden(t *testing.T) {
	path := writeTrace(t)
	var out strings.Builder
	if err := run(&out, path, 5, "", false, true, 0, false); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile("testdata/metrics.golden", []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(golden) {
		t.Errorf("-metrics exposition diverges from testdata/metrics.golden:\n got:\n%s\nwant:\n%s",
			out.String(), golden)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(&strings.Builder{}, t.TempDir()+"/nope.jsonl", 5, "", false, false, 0, false); err == nil {
		t.Error("missing file accepted")
	}
	empty := t.TempDir() + "/empty.jsonl"
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&strings.Builder{}, empty, 5, "", false, false, 0, false); err == nil {
		t.Error("empty trace accepted")
	}
	bad := t.TempDir() + "/bad.jsonl"
	if err := os.WriteFile(bad, []byte("{\"t\":-1,\"kind\":\"done\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&strings.Builder{}, bad, 5, "", false, false, 0, false); err == nil {
		t.Error("invalid event accepted")
	}
}
