package main

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"lips/internal/trace"
)

// chargedTrace writes a two-job, two-tenant trace whose embedded sample
// snapshots agree with the money-bearing events to the microcent.
// mutate edits the event list before writing, so drift tests can cook
// one number.
func chargedTrace(t *testing.T, mutate func([]trace.Event)) string {
	t.Helper()
	events := []trace.Event{
		{T: 0, Kind: trace.KindRun, Run: &trace.RunInfo{
			Scheduler: "lips(e=600s)", Nodes: 2, Stores: 2, Jobs: 2, Tasks: 3,
			JobNames: []string{"jA", "jB"}, JobUsers: []string{"alice", ""}}},
		{T: 100, Kind: trace.KindDone, Task: &trace.TaskInfo{
			Job: 0, Task: 0, Node: 0, Store: 0, DurSec: 90, CPUSec: 85, CostUC: 100, XferUC: 40}},
		{T: 110, Kind: trace.KindKill, Task: &trace.TaskInfo{
			Job: 1, Task: 0, Node: 1, Store: -1, Reason: "timeout", CostUC: 10}},
		{T: 120, Kind: trace.KindKill, Task: &trace.TaskInfo{
			Job: 0, Task: 1, Node: 0, Store: -1, Reason: "preempt", CostUC: 5}},
		{T: 130, Kind: trace.KindMove, Move: &trace.MoveInfo{
			Object: 0, Block: 0, Src: 0, Dst: 1, MB: 64, Reason: "plan", CostUC: 7}},
		{T: 140, Kind: trace.KindMove, Move: &trace.MoveInfo{
			Object: 0, Block: 1, Src: 0, Dst: 1, MB: 64, Reason: "re-replicate", CostUC: 3}},
		{T: 200, Kind: trace.KindSample, Sample: &trace.SampleInfo{
			Done: 1, FreeSlots: 4, LiveSlots: 4,
			TotalUC: 125, CPUUC: 60, TransferUC: 50, PlacementUC: 7, SpeculativeUC: 5, FaultUC: 3,
			Tenants: []trace.TenantCost{
				{Tenant: "_system", TotalUC: 20, TransferUC: 10, PlacementUC: 7, FaultUC: 3},
				{Tenant: "alice", TotalUC: 105, CPUUC: 60, TransferUC: 40, SpeculativeUC: 5},
			}}},
	}
	if mutate != nil {
		mutate(events)
	}
	path := t.TempDir() + "/charged.jsonl"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewJSONL(f)
	for _, e := range events {
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

func TestAuditReconciles(t *testing.T) {
	path := chargedTrace(t, nil)
	var out strings.Builder
	if err := run(&out, path, 5, "", false, false, 0, true); err != nil {
		t.Fatalf("audit failed on a consistent trace: %v", err)
	}
	got := out.String()
	for _, want := range []string{"OK", "reconciled to the microcent", "_system", "alice"} {
		if !strings.Contains(got, want) {
			t.Errorf("audit output missing %q:\n%s", want, got)
		}
	}
}

func TestAuditCatchesCategoryDrift(t *testing.T) {
	path := chargedTrace(t, func(events []trace.Event) {
		s := events[len(events)-1].Sample
		s.CPUUC++ // one microcent of CPU the events never billed
		s.TotalUC++
		s.Tenants[1].CPUUC++
		s.Tenants[1].TotalUC++
	})
	err := run(&strings.Builder{}, path, 5, "", false, false, 0, true)
	if err == nil || !strings.Contains(err.Error(), "cpu") {
		t.Fatalf("audit missed a one-microcent category drift: %v", err)
	}
}

func TestAuditCatchesTenantDrift(t *testing.T) {
	// Shift one transfer microcent from alice to _system: the category
	// totals still balance, only the chargeback attribution is wrong.
	path := chargedTrace(t, func(events []trace.Event) {
		s := events[len(events)-1].Sample
		s.Tenants[0].TransferUC++
		s.Tenants[0].TotalUC++
		s.Tenants[1].TransferUC--
		s.Tenants[1].TotalUC--
	})
	err := run(&strings.Builder{}, path, 5, "", false, false, 0, true)
	if err == nil || !strings.Contains(err.Error(), "tenant") {
		t.Fatalf("audit missed a cross-tenant misattribution: %v", err)
	}
}

func TestAuditRequiresSamples(t *testing.T) {
	path := chargedTrace(t, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	trimmed := strings.Join(lines[:len(lines)-1], "\n") + "\n" // drop the sample
	if err := os.WriteFile(path, []byte(trimmed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&strings.Builder{}, path, 5, "", false, false, 0, true); err == nil {
		t.Error("audit passed a trace with nothing to reconcile against")
	}
}

func TestByJobReport(t *testing.T) {
	path := chargedTrace(t, nil)
	var out strings.Builder
	if err := run(&out, path, 5, "", false, false, 3, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"most expensive jobs", "jA", "jB", "alice", "(system)", "_system"} {
		if !strings.Contains(got, want) {
			t.Errorf("by-job report missing %q:\n%s", want, got)
		}
	}
	// jA ($105) outspends the system bucket ($10) and jB ($0.10... i.e. 10uc).
	if strings.Index(got, "jA") > strings.Index(got, "jB") {
		t.Error("jobs not sorted by total spend")
	}
}

func TestByJobCSV(t *testing.T) {
	path := chargedTrace(t, nil)
	csvPath := t.TempDir() + "/jobs.csv"
	var out strings.Builder
	if err := run(&out, path, 5, csvPath, false, false, 2, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 { // header + jA + (system) + jB — the CSV is never top-N truncated
		t.Fatalf("want 4 CSV lines, got %d:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "run,job,name,tenant,") {
		t.Errorf("bad CSV header %q", lines[0])
	}
	if !strings.Contains(lines[1], "jA,alice") || !strings.HasSuffix(lines[1], ",105") {
		t.Errorf("bad jA row %q", lines[1])
	}
	// The rollup conserves the run total the last sample embeds.
	sum := 0
	for _, line := range lines[1:] {
		uc, err := strconv.Atoi(line[strings.LastIndexByte(line, ',')+1:])
		if err != nil {
			t.Fatalf("bad total in row %q: %v", line, err)
		}
		sum += uc
	}
	if sum != 125 {
		t.Errorf("rollup rows sum to %d uc, the sampled total is 125 uc", sum)
	}
}
