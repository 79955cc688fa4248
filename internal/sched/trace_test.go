package sched

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"lips/internal/sim"
	"lips/internal/trace"
)

// traceRun executes one seeded LiPS run under churn with a JSONL sink
// and returns the raw trace bytes; timings sets LiPS.TraceTimings.
func traceRun(t *testing.T, seed int64, timings bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	c := mixedCluster()
	w := smallJobSet(rand.New(rand.NewSource(seed)), 3)
	// Faults land after the first epoch (t=200) so attempts are running
	// when the crash hits and kill events appear in the stream.
	plan := &sim.FaultPlan{Faults: []sim.Fault{
		{At: 210, Kind: sim.FaultNodeDown, Node: 0},
		{At: 230, Kind: sim.FaultStoreLoss, Store: 1},
		{At: 250, Kind: sim.FaultSlowdown, Node: 2, Factor: 2, DurationSec: 100},
		{At: 400, Kind: sim.FaultNodeUp, Node: 0},
	}}
	opts := sim.Options{
		TaskTimeoutSec: 1200, Faults: plan,
		Tracer: sink, SampleIntervalSec: 50, TraceLabel: "determinism",
	}
	l := NewLiPS(200)
	l.TraceTimings = timings
	runSched(t, c, w, nil, l, opts)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Events() == 0 {
		t.Fatal("run produced no trace events")
	}
	return buf.Bytes()
}

// TestTraceDeterministic is the reproducibility contract: two runs of
// the same seeded simulation — LP epochs, injected faults and all —
// write byte-identical JSONL traces.
func TestTraceDeterministic(t *testing.T) {
	a := traceRun(t, 3, false)
	b := traceRun(t, 3, false)
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := range la {
			if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("traces diverge at line %d:\n  run A: %s\n  run B: %s", i+1, la[i], safeLine(lb, i))
			}
		}
		t.Fatalf("traces differ in length: %d vs %d bytes", len(a), len(b))
	}
	if c := traceRun(t, 4, false); bytes.Equal(a, c) {
		t.Error("different seeds produced identical traces")
	}
}

func safeLine(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return []byte("<missing>")
}

// TestTraceEventStream checks the emitted stream is schema-valid and
// covers the expected kinds for a faulted LiPS run.
func TestTraceEventStream(t *testing.T) {
	events, err := trace.ReadAll(bytes.NewReader(traceRun(t, 3, false)))
	if err != nil {
		t.Fatal(err)
	}
	census := map[trace.Kind]int{}
	for _, e := range events {
		census[e.Kind]++
	}
	if census[trace.KindRun] != 1 {
		t.Errorf("run headers = %d, want 1", census[trace.KindRun])
	}
	for _, k := range []trace.Kind{trace.KindEnqueue, trace.KindLaunch, trace.KindDone,
		trace.KindEpoch, trace.KindFault, trace.KindSample, trace.KindKill} {
		if census[k] == 0 {
			t.Errorf("no %s events in faulted LiPS run (census %v)", k, census)
		}
	}
	// The run header leads and describes the scenario.
	if r := events[0]; r.Kind != trace.KindRun || r.Run.Label != "determinism" {
		t.Errorf("first event = %+v, want labelled run header", events[0])
	}
	// Every launch matches a prior enqueue count-wise; every done/kill a launch.
	if census[trace.KindLaunch] < census[trace.KindDone] {
		t.Errorf("launches (%d) < dones (%d)", census[trace.KindLaunch], census[trace.KindDone])
	}
	// Epoch events carry no wall-clock timings unless opted in — then the
	// same run's events say where each epoch went.
	wall := func(ep *trace.EpochInfo) []float64 {
		return []float64{ep.BuildMS, ep.SolveMS, ep.RoundMS, ep.ApplyMS, ep.PricingMS, ep.FactorMS, ep.FtranMS, ep.BtranMS}
	}
	for _, e := range events {
		if e.Kind != trace.KindEpoch {
			continue
		}
		for _, ms := range wall(e.Epoch) {
			if ms != 0 {
				t.Errorf("epoch %d leaked wall-clock timings without TraceTimings: %+v", e.Epoch.Epoch, e.Epoch)
				break
			}
		}
	}
	timed, err := trace.ReadAll(bytes.NewReader(traceRun(t, 3, true)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range timed {
		if e.Kind == trace.KindEpoch && (e.Epoch.BuildMS <= 0 || e.Epoch.SolveMS <= 0) {
			t.Errorf("epoch %d under TraceTimings lacks its phase durations: %+v", e.Epoch.Epoch, e.Epoch)
		}
	}
}

// TestChromeEpochSlicesCarryPhase1: each epoch slice in the Chrome export
// of a LiPS run carries the phase-1 pivot count of its epoch event, the
// one fact the epoch record keeps about how its solve started.
func TestChromeEpochSlicesCarryPhase1(t *testing.T) {
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	l := NewLiPS(200)
	runSched(t, mixedCluster(), smallJobSet(rand.New(rand.NewSource(3)), 3), nil, l,
		sim.Options{TaskTimeoutSec: 1200, Tracer: sink})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	ch := trace.NewChrome(&chrome)
	var phase1 []int
	for _, e := range events {
		ch.Emit(e)
		if e.Kind == trace.KindEpoch {
			phase1 = append(phase1, e.Epoch.Phase1)
		}
	}
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	var slices []struct {
		Cat  string         `json:"cat"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &slices); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range slices {
		if s.Cat != "epoch" {
			continue
		}
		if n < len(phase1) && s.Args["phase1"] != float64(phase1[n]) {
			t.Errorf("epoch slice %d: phase1 %v, its event says %d", n+1, s.Args["phase1"], phase1[n])
		}
		n++
	}
	if n != len(phase1) || n != l.Epochs || n == 0 {
		t.Errorf("%d epoch slices for %d epoch events and %d epochs", n, len(phase1), l.Epochs)
	}
}
