package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/lp"
	"lips/internal/obs"
	"lips/internal/obs/obstest"
	"lips/internal/sim"
	"lips/internal/trace"
	"lips/internal/workload"
)

// TestLiveMetricsMatchTraceReplay is the one-producer contract: a LiPS
// run scraped live and the same run's JSONL trace replayed through
// obs.NewTraceSink must expose the same lips_sim_*, lips_cost_*,
// lips_sched_* and lips_lp_* bytes — lifecycle counters, epoch and solve
// counters, cost by category and tenant, and the sampled gauges (live
// runs on the same cadence as the trace sampler, so the last refresh and
// the last sample coincide). The faulted run books a 0 µ¢ charge, which
// neither side may show.
func TestLiveMetricsMatchTraceReplay(t *testing.T) {
	liveReg, replayReg, r := liveAndReplay(t, false)
	obstest.SameExposition(t, liveReg, replayReg, obstest.Replayed...)

	if v, _ := liveReg.Value(obs.MSimDone); v == 0 {
		t.Error("run completed no tasks — the comparison is vacuous")
	}
	if v, _ := liveReg.Value(obs.MSchedEpochs); v == 0 {
		t.Error("run solved no epochs — the comparison is vacuous")
	}
	zero := false
	for _, tn := range r.Cost.Tenants() {
		for _, uc := range r.Cost.TenantBreakdown(tn) {
			zero = zero || uc == 0
		}
	}
	if !zero {
		t.Error("run booked no 0 µ¢ charge — the zero-charge rule goes untested")
	}
}

// TestTimedLiveMetricsMatchTraceReplay is the same contract for a trace
// recorded with TraceTimings: live and replay observe the same
// microsecond-resolution epoch events, so every LiPS family line, the
// wall-clock ones included, is byte-identical.
func TestTimedLiveMetricsMatchTraceReplay(t *testing.T) {
	liveReg, replayReg, _ := liveAndReplay(t, true)
	obstest.SameTimedExposition(t, liveReg, replayReg, "lips_sched_", "lips_lp_")
	if v, _ := liveReg.Value(obs.MLPSolveSeconds); v == 0 {
		t.Error("run timed no solve — the comparison is vacuous")
	}
}

// liveAndReplay runs LiPS over a faulted small job set with live metrics
// and a JSONL trace (timed or not), and replays the trace into a fresh
// registry.
func liveAndReplay(t *testing.T, timed bool) (live, replay *obs.Registry, r *sim.Result) {
	live = obs.NewRegistry()
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
		Metrics: live, MetricsSampleSec: 50,
	}
	l := NewLiPS(200)
	l.TraceTimings = timed
	r = runSched(t, c, w, nil, l, opts)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replay = obs.NewRegistry()
	rs := obs.NewTraceSink(replay)
	for _, e := range events {
		rs.Emit(e)
	}
	return live, replay, r
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

// TestIterLimitEpochs runs LiPS under an iteration budget that some
// epoch solves exhaust. It pins the run's lips_lp_* totals: a failed
// solve counts like any other, its solves, iterations, phase-1
// iterations, warm starts and refactorizations, and the pricing rounds
// and columns that came before the round that ran out. And a failed epoch
// is an epoch record like any other: LastEpochStats and the trace carry
// its status, it defers all its pending work, and lips_sched_epochs_total
// counts it. Every master starts at the parked basis, so only a run whose
// stores already hold more than their capacity (the m1.medium stores
// shrunk to 100 MB each) runs phase 1, and its every epoch runs out there.
func TestIterLimitEpochs(t *testing.T) {
	for _, tc := range []struct {
		name           string
		storeMB        float64 // the m1.medium stores' capacity; 0 keeps it
		want, statuses string  // statuses: per epoch, "-" for an optimal solve
	}{
		{"parked", 0,
			"solves=9 iterations=78 phase1_iterations=0 warm_starts=9 refactorizations=12 colgen_rounds=9 colgen_columns=82",
			"L L L - L L L"},
		{"over-capacity", 100,
			"solves=8 iterations=68 phase1_iterations=39 warm_starts=2 refactorizations=12 colgen_rounds=8 colgen_columns=60",
			"L L L L L L"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, w := heavyScenario()
			if tc.storeMB > 0 {
				for s := range c.Stores {
					if c.Nodes[c.Stores[s].Node].Type == cost.M1Medium.Name {
						c.Stores[s].CapacityMB = tc.storeMB
					}
				}
			}
			iterLimitRun(t, c, w, tc.want, tc.statuses)
		})
	}
}

// iterLimitRun is one TestIterLimitEpochs run: LiPS at 100 s epochs with
// ten pivots a solve.
func iterLimitRun(t *testing.T, c *cluster.Cluster, w *workload.Workload, want, statuses string) {
	l := NewLiPS(100)
	l.maxIters = 10
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	s := sim.New(c, w, w.Placement(), l, sim.Options{TaskTimeoutSec: 1e9, Metrics: reg, Tracer: sink})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	short := func(status string) string {
		switch status {
		case "":
			return "-"
		case lp.IterLimit.String():
			return "L"
		}
		return status
	}
	// One step per tick, so every epoch's record is read before the
	// next one replaces it.
	var recorded []string
	last := 0
	for at := 0.0; !s.Drained(); at += l.EpochSec {
		if at > 1e6 {
			t.Fatal("run did not drain")
		}
		if err := s.StepUntil(at); err != nil {
			t.Fatal(err)
		}
		if es, ok := l.LastEpochStats(); ok && es.Epoch != last {
			last = es.Epoch
			recorded = append(recorded, short(es.Status))
			if es.Status != "" && (es.Launched != 0 || es.Deferred != es.Pending) {
				t.Errorf("failed epoch %d launched %d and deferred %d of %d", es.Epoch, es.Launched, es.Deferred, es.Pending)
			}
			// The failed solve's LP is sized like a finished one's, and a
			// budget of a few pivots is far from a stall.
			if es.Rows == 0 || es.Cols == 0 || es.Stalled {
				t.Errorf("epoch %d recorded as %d×%d, stalled %v", es.Epoch, es.Rows, es.Cols, es.Stalled)
			}
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Err == nil || !strings.Contains(l.Err.Error(), "iteration limit") {
		t.Fatalf("latched %v, want an iteration-limit failure", l.Err)
	}
	var got []string
	for _, f := range []string{obs.MLPSolves, obs.MLPIters, obs.MLPPhase1, obs.MLPWarmStarts,
		obs.MLPRefactor, obs.MLPColGenRounds, obs.MLPColGenColumns} {
		v, _ := reg.Value(f)
		got = append(got, fmt.Sprintf("%s=%g", strings.TrimSuffix(strings.TrimPrefix(f, "lips_lp_"), "_total"), v))
	}
	if s := strings.Join(got, " "); s != want {
		t.Errorf("\n got %s\nwant %s", s, want)
	}

	if got := strings.Join(recorded, " "); got != statuses {
		t.Errorf("LastEpochStats statuses %q, want %q", got, statuses)
	}
	evs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var traced []string
	for _, ev := range evs {
		if ev.Kind == trace.KindEpoch {
			traced = append(traced, short(ev.Epoch.Status))
		}
	}
	if got := strings.Join(traced, " "); got != statuses {
		t.Errorf("traced statuses %q, want %q", got, statuses)
	}
	if epochs, _ := reg.Value(obs.MSchedEpochs); epochs != float64(l.Epochs) || len(recorded) != l.Epochs {
		t.Errorf("%s = %g and %d records over %d epochs", obs.MSchedEpochs, epochs, len(recorded), l.Epochs)
	}
}
