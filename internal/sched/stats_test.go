package sched

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lips/internal/lp"
	"lips/internal/obs"
	"lips/internal/sim"
	"lips/internal/trace"
)

// TestLastEpochStats: before any run LiPS reports no epoch; after a run
// the snapshot reflects the final planning epoch — a positive epoch
// counter within the run's total, the size of its LP, and a
// launched/deferred split consistent with the pending count. Init must
// reset it so a reused scheduler does not leak the previous run's view.
func TestLastEpochStats(t *testing.T) {
	l := NewLiPS(200)
	if _, ok := l.LastEpochStats(); ok {
		t.Fatal("stats reported before any epoch ran")
	}

	c := mixedCluster()
	w := smallJobSet(rand.New(rand.NewSource(3)), 3)
	runSched(t, c, w, nil, l, sim.Options{})

	es, ok := l.LastEpochStats()
	if !ok {
		t.Fatal("no stats after a completed run")
	}
	if es.Epoch <= 0 || es.Epoch > l.Epochs {
		t.Errorf("last epoch %d outside (0, %d]", es.Epoch, l.Epochs)
	}
	if es.Jobs <= 0 || es.Pending <= 0 {
		t.Errorf("empty epoch snapshot: %+v", es)
	}
	if es.Deferred != es.Pending-es.Launched {
		t.Errorf("deferred %d != pending %d - launched %d", es.Deferred, es.Pending, es.Launched)
	}
	if es.Rows < es.Jobs || es.Cols <= 0 || es.NNZ < es.Cols {
		t.Errorf("LP of %d jobs recorded as %d×%d with %d nonzeros", es.Jobs, es.Rows, es.Cols, es.NNZ)
	}

	// Init (a new run) resets the snapshot.
	s := sim.New(mixedCluster(), smallJobSet(rand.New(rand.NewSource(4)), 3), nil, l, sim.Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.LastEpochStats(); ok {
		t.Error("stats survived Init — run-scoped state leaked")
	}
}

// TestEpochInfoCountsRounds: an epoch's wire form counts its own simplex
// solves, one per pricing round, and those that started warm — not the
// one epoch every record is — and shows no wall-clock key unless timed,
// the oracle's part of the solve included.
func TestEpochInfoCountsRounds(t *testing.T) {
	r := EpochRecord{Epoch: 1, Rows: 41, Cols: 103, NNZ: 361, LPSolves: 3, LPWarmStarts: 2, ColGenRounds: 3, ColGenColumns: 52}
	r.Iters, r.Refactorizations = 19, 4
	r.SolveTime, r.OracleTime = 2*time.Millisecond, 1500*time.Microsecond
	want := `"iters":19,"launched":0,"deferred":0,"rows":41,"cols":103,"nnz":361,"solves":3,"warm_starts":2,"refactorizations":4,"colgen_rounds":3,"colgen_columns":52`
	for _, timed := range []bool{false, true} {
		b, err := json.Marshal(r.TraceInfo("lips", timed))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), want) {
			t.Errorf("timed=%v: epoch event %s lacks %s", timed, b, want)
		}
		if got := strings.Contains(string(b), `"solve_ms":2,"oracle_ms":1.5`); got != timed || (!timed && strings.Contains(string(b), "_ms")) {
			t.Errorf("timed=%v: epoch event %s", timed, b)
		}
	}
}

// TestObserveLPAbandonedSolve renders into the lips_lp_* families an
// epoch whose column generation the solver abandoned (a singular basis,
// say): its rounds count as solves, with the work the finished rounds
// reported, but not as a finished pricing loop. An epoch that failed with
// a status counts both.
func TestObserveLPAbandonedSolve(t *testing.T) {
	for _, tc := range []struct {
		status          string
		rounds, columns float64 // the colgen totals it adds
	}{{trace.StatusError, 0, 0}, {"iteration limit", 3, 8}} {
		reg := obs.NewRegistry()
		r := EpochRecord{Epoch: 1, Status: tc.status, LPSolves: 3, LPWarmStarts: 1, ColGenRounds: 3, ColGenColumns: 8}
		r.Iters = 40
		obs.RegisterSched(reg).ObserveEpoch(r.TraceInfo("lips", false))
		for _, c := range []struct {
			family string
			want   float64
		}{
			{obs.MLPSolves, 3}, {obs.MLPWarmStarts, 1}, {obs.MLPIters, 40},
			{obs.MLPColGenRounds, tc.rounds}, {obs.MLPColGenColumns, tc.columns},
		} {
			if got, _ := reg.Value(c.family); got != c.want {
				t.Errorf("status %q: %s = %g, want %g", tc.status, c.family, got, c.want)
			}
		}
	}
}

// TestStalledEpochShows: a solve past 20·(rows+cols) pivots is stalled,
// one at the bound or with no LP is not; a stalled epoch says so in its
// trace event, and an epoch that is not leaves the key out, like status.
func TestStalledEpochShows(t *testing.T) {
	for _, tc := range []struct {
		iters, rows, cols int
		want              bool
	}{{8200, 70, 340, false}, {8201, 70, 340, true}, {5, 0, 0, false}} {
		r := EpochRecord{Stats: lp.Stats{Iters: tc.iters}, Rows: tc.rows, Cols: tc.cols}
		if got := r.stalled(); got != tc.want {
			t.Errorf("%d pivots on %d×%d: stalled %v, want %v", tc.iters, tc.rows, tc.cols, got, tc.want)
		}
	}
	for _, stalled := range []bool{false, true} {
		b, err := json.Marshal(EpochRecord{Epoch: 3, Rows: 70, Cols: 340, Stalled: stalled}.TraceInfo("lips", false))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(b), `"stalled":true`); got != stalled || (!stalled && strings.Contains(string(b), "stalled")) {
			t.Errorf("stalled=%v: epoch event %s", stalled, b)
		}
	}
}
