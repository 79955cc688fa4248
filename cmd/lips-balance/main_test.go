package main

import (
	"os"
	"testing"

	"lips/internal/obs"
	"lips/internal/obs/obstest"
	"lips/internal/trace"
)

func TestRunBalance(t *testing.T) {
	for _, kind := range []string{"paper20", "paper100"} {
		if err := run(os.Stdout, kind, 600, 0.005, 1, &obs.CLI{}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	if err := run(os.Stdout, "nope", 10, 0.1, 1, &obs.CLI{}); err == nil {
		t.Error("unknown cluster accepted")
	}
}

func TestRunBalanceTrace(t *testing.T) {
	path := t.TempDir() + "/moves.jsonl"
	sink, err := trace.NewSink(path, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	cli := &obs.CLI{Trace: sink}
	if err := cli.Stop(run(os.Stdout, "paper20", 600, 0.005, 1, cli)); err != nil {
		t.Fatalf("run with trace: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	events, err := trace.ReadAll(f)
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no move events written")
	}
	for _, e := range events {
		if e.Kind != trace.KindMove || e.Move.Reason != "balance" {
			t.Fatalf("unexpected event %+v", e)
		}
	}
}

// TestBalanceLiveMatchesReplay holds the balancer's one producer: with
// -listen and -trace both set, the live lips_sim_* lines equal those a
// replay of the written trace rebuilds, the balance moves included.
func TestBalanceLiveMatchesReplay(t *testing.T) {
	path := t.TempDir() + "/moves.jsonl"
	sink, err := trace.NewSink(path, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	cli := &obs.CLI{Trace: sink, Registry: obs.NewRegistry()}
	if err := cli.Stop(run(os.Stdout, "paper20", 600, 0.005, 1, cli)); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	replay := obs.NewRegistry()
	rs := obs.NewTraceSink(replay)
	for _, e := range events {
		rs.Emit(e)
	}
	obstest.SameExposition(t, cli.Registry, replay, "lips_sim_")
	if v, _ := cli.Registry.Value(obs.MSimMoves, "balance"); v == 0 || int(v) != len(events) {
		t.Errorf("live balance moves = %g, trace holds %d", v, len(events))
	}
}
