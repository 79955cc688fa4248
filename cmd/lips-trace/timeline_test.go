package main

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/trace"
	"lips/internal/workload"
)

// TestEpochTimelineShowsPhase1 traces a small LiPS SWIM day in-process
// and reads its report back: every epoch timeline row shows the phase-1
// pivot count its epoch event carries, and no row calls an epoch "cold"
// whose solve ran no phase 1.
func TestEpochTimelineShowsPhase1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := cluster.Paper20(0.5)
	stores := c.StoreIDs()
	w := workload.SWIM(rng, stores, workload.SWIMSpec{Jobs: 20, DurationSec: 24 * 3600})
	p := w.Placement()
	p.Shuffle(rng, stores)

	path := t.TempDir() + "/day.jsonl"
	sink, err := trace.NewSink(path, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	l := sched.NewLiPS(600)
	if _, err := sim.New(c, w, p, l, sim.Options{TaskTimeoutSec: 1200, Tracer: sink}).Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Err != nil {
		t.Fatal(l.Err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	phase1 := map[string]int{} // epoch number → its event's phase-1 pivots
	for _, e := range events {
		if e.Kind == trace.KindEpoch {
			phase1[strconv.Itoa(e.Epoch.Epoch)] = e.Epoch.Phase1
		}
	}
	if len(phase1) == 0 || len(phase1) != l.Epochs {
		t.Fatalf("trace holds %d epoch events, LiPS ran %d epochs", len(phase1), l.Epochs)
	}

	var out strings.Builder
	if err := run(&out, path, 5, "", false, false, 0, false); err != nil {
		t.Fatal(err)
	}
	_, timeline, ok := strings.Cut(out.String(), "\nepoch timeline:\n")
	if !ok {
		t.Fatalf("report has no epoch timeline:\n%s", out.String())
	}
	timeline, _, _ = strings.Cut(timeline, "\n\n")
	lines := strings.Split(timeline, "\n")
	header := strings.Fields(lines[0])
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	if _, ok := col["phase1"]; !ok {
		t.Fatalf("epoch timeline has no phase1 column: %q", lines[0])
	}
	rows := lines[1:]
	if len(rows) != len(phase1) {
		t.Fatalf("%d timeline rows for %d epoch events:\n%s", len(rows), len(phase1), timeline)
	}
	for _, row := range rows {
		cells := strings.Fields(row)
		want, ok := phase1[cells[col["epoch"]]]
		if !ok {
			t.Errorf("row %q names no traced epoch", row)
			continue
		}
		if got := cells[col["phase1"]]; got != strconv.Itoa(want) {
			t.Errorf("row %q: phase1 %s, its epoch event says %d", row, got, want)
		}
		if want == 0 && strings.Contains(row, "cold") {
			t.Errorf("row %q calls an epoch with no phase 1 cold", row)
		}
	}
}
