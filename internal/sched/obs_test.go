package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lips/internal/lp"
	"lips/internal/obs"
	"lips/internal/obs/obstest"
	"lips/internal/sim"
	"lips/internal/trace"
)

// TestLiveMetricsMatchTraceReplay is the one-producer contract: a LiPS
// run scraped live and the same run's JSONL trace replayed through
// obs.NewTraceSink must expose the same lips_sim_*, lips_cost_* and
// lips_sched_* bytes — lifecycle counters, epoch counters, cost by
// category and tenant, and the sampled gauges (live runs on the same
// cadence as the trace sampler, so the last refresh and the last sample
// coincide). The faulted run books a 0 µ¢ charge, which neither side
// may show.
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
	r := runSched(t, c, w, nil, NewLiPS(200), opts)
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

// TestIterLimitEpochs runs LiPS on both LP paths under an iteration
// budget that some epoch solves exhaust. It pins the lips_lp_* totals of
// each run: a failed solve counts like any other, its solves, iterations,
// warm starts and refactorizations and, under ColGen, the pricing rounds
// and columns that came before the round that ran out. And a failed
// epoch is an epoch record like any other: LastEpochStats and the trace
// carry its status, it defers all its pending work, and
// lips_sched_epochs_total counts it.
func TestIterLimitEpochs(t *testing.T) {
	for _, tc := range []struct {
		colgen   bool
		epochSec float64
		maxIters int
		want     string
		statuses string // per epoch, "-" for an optimal solve
	}{
		{false, 200, 22, "solves=7 iterations=98 phase1_iterations=73 warm_starts=2 refactorizations=9 colgen_rounds=0 colgen_columns=0",
			"L L L - - - -"},
		// Two of these epochs run out in their second pricing round.
		{true, 100, 10, "solves=8 iterations=68 phase1_iterations=39 warm_starts=2 refactorizations=8 colgen_rounds=8 colgen_columns=60",
			"L L L L L L"},
	} {
		c, w := heavyScenario()
		l := NewLiPS(tc.epochSec)
		l.ColGen = tc.colgen
		l.maxIters = tc.maxIters
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
					t.Errorf("colgen=%v: failed epoch %d launched %d and deferred %d of %d", tc.colgen, es.Epoch, es.Launched, es.Deferred, es.Pending)
				}
				// The failed solve's LP is sized like a finished one's, and a
				// budget of a few pivots is far from a stall.
				if es.Rows == 0 || es.Cols == 0 || es.Stalled {
					t.Errorf("colgen=%v: epoch %d recorded as %d×%d, stalled %v", tc.colgen, es.Epoch, es.Rows, es.Cols, es.Stalled)
				}
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if l.Err == nil || !strings.Contains(l.Err.Error(), "iteration limit") {
			t.Fatalf("colgen=%v: latched %v, want an iteration-limit failure", tc.colgen, l.Err)
		}
		var got []string
		for _, f := range []string{obs.MLPSolves, obs.MLPIters, obs.MLPPhase1, obs.MLPWarmStarts,
			obs.MLPRefactor, obs.MLPColGenRounds, obs.MLPColGenColumns} {
			v, _ := reg.Value(f)
			got = append(got, fmt.Sprintf("%s=%g", strings.TrimSuffix(strings.TrimPrefix(f, "lips_lp_"), "_total"), v))
		}
		if s := strings.Join(got, " "); s != tc.want {
			t.Errorf("colgen=%v:\n got %s\nwant %s", tc.colgen, s, tc.want)
		}

		if got := strings.Join(recorded, " "); got != tc.statuses {
			t.Errorf("colgen=%v: LastEpochStats statuses %q, want %q", tc.colgen, got, tc.statuses)
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
		if got := strings.Join(traced, " "); got != tc.statuses {
			t.Errorf("colgen=%v: traced statuses %q, want %q", tc.colgen, got, tc.statuses)
		}
		if epochs, _ := reg.Value(obs.MSchedEpochs); epochs != float64(l.Epochs) || len(recorded) != l.Epochs {
			t.Errorf("colgen=%v: %s = %g and %d records over %d epochs", tc.colgen, obs.MSchedEpochs, epochs, len(recorded), l.Epochs)
		}
	}
}
