package sched

import (
	"bytes"
	"math/rand"
	"testing"

	"lips/internal/obs"
	"lips/internal/sim"
	"lips/internal/trace"
)

// TestLiveMetricsMatchTraceReplay is the shared-vocabulary contract: a
// LiPS run scraped live and the same run's JSONL trace replayed through
// obs.NewTraceSink must agree on every deterministic family — lifecycle
// counters, epoch counters, and the sampled gauges (live runs on the same
// cadence as the trace sampler, so the last refresh and the last sample
// coincide). Wall-clock histograms and the cost counters are excluded:
// the replay derives cost from the cumulative sample series, which stops
// at the last sample rather than the end-of-run ledger.
func TestLiveMetricsMatchTraceReplay(t *testing.T) {
	liveReg := obs.NewRegistry()
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	c := mixedCluster()
	w := smallJobSet(rand.New(rand.NewSource(7)), 3)
	plan := &sim.FaultPlan{Faults: []sim.Fault{
		{At: 210, Kind: sim.FaultNodeDown, Node: 0},
		{At: 400, Kind: sim.FaultNodeUp, Node: 0},
	}}
	opts := sim.Options{
		TaskTimeoutSec: 1200, Faults: plan,
		Tracer: sink, SampleIntervalSec: 50,
		Metrics: liveReg, MetricsSampleSec: 50,
	}
	runSched(t, c, w, nil, NewLiPS(200), opts)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayReg := obs.NewRegistry()
	replay := obs.NewTraceSink(replayReg)
	for _, e := range events {
		replay.Emit(e)
	}

	check := func(name string, labels ...string) {
		t.Helper()
		if len(labels) == 0 {
			labels = []string{""}
		}
		for _, lv := range labels {
			var live, rep float64
			var ok1, ok2 bool
			if lv == "" {
				live, ok1 = liveReg.Value(name)
				rep, ok2 = replayReg.Value(name)
			} else {
				live, ok1 = liveReg.Value(name, lv)
				rep, ok2 = replayReg.Value(name, lv)
			}
			if !ok1 || !ok2 {
				t.Errorf("%s{%s}: registered live=%v replay=%v", name, lv, ok1, ok2)
				continue
			}
			if live != rep {
				t.Errorf("%s{%s}: live %g != replay %g", name, lv, live, rep)
			}
		}
	}

	check(obs.MSimEnqueued)
	check(obs.MSimDone)
	check(obs.MSimLaunched, obs.Localities...)
	check(obs.MSimKilled, obs.KillReasons...)
	check(obs.MSimMoves, obs.MoveReasons...)
	check(obs.MSimMovedMB)
	check(obs.MSimFaults, obs.FaultKinds...)
	check(obs.MSchedEpochs)
	check(obs.MSchedEpochNumber)
	check(obs.MSchedDeferred)
	check(obs.MSchedWarmOffers)
	check(obs.MSchedWarmHits)
	check(obs.MSchedLaunched)
	check(obs.MSchedIters) // histogram Value is the observation count
	// Sampled gauges: identical cadences make the last live refresh and
	// the last replayed sample the same scan.
	check(obs.MSimClockSeconds)
	check(obs.MSimBusySlotSeconds)
	check(obs.MSimFreeSlots)
	check(obs.MSimLiveSlots)
	check(obs.MSimTasks, obs.TaskStates...)

	if v, _ := liveReg.Value(obs.MSimDone); v == 0 {
		t.Error("run completed no tasks — the comparison is vacuous")
	}
	if v, _ := liveReg.Value(obs.MSchedEpochs); v == 0 {
		t.Error("run solved no epochs — the comparison is vacuous")
	}
}

// TestLiPSRegistersLPFamilies checks Init registers the lips_lp_* families
// eagerly, so a scrape before the first epoch solve already lists them.
func TestLiPSRegistersLPFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	c := mixedCluster()
	w := smallJobSet(rand.New(rand.NewSource(7)), 3)
	opts := sim.Options{TaskTimeoutSec: 1200, Metrics: reg}
	runSched(t, c, w, nil, NewLiPS(200), opts)
	for _, name := range []string{obs.MLPSolves, obs.MLPIters, obs.MLPSolveSeconds, obs.MLPPricingSeconds} {
		if _, ok := reg.Value(name); !ok {
			t.Errorf("%s not registered", name)
		}
	}
	if v, _ := reg.Value(obs.MLPSolves); v == 0 {
		t.Error("LP solve counter is zero after a LiPS run")
	}
	if epochs, _ := reg.Value(obs.MSchedEpochs); epochs > 0 {
		if iters, _ := reg.Value(obs.MLPIters); iters == 0 {
			t.Error("LP iteration counter is zero after epoch solves")
		}
	}
}
