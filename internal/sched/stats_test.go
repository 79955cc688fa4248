package sched

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lips/internal/lp"
	"lips/internal/obs"
	"lips/internal/sim"
)

// TestLastEpochStats: before any run LiPS reports no epoch; after a run
// the snapshot reflects the final planning epoch — a positive epoch
// counter within the run's total, the solver one-liner, and a
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
	if line := es.String(); !strings.HasPrefix(line, fmt.Sprintf("%d solves, ", es.LPSolves)) ||
		!strings.HasSuffix(line, fmt.Sprintf(", %d warm", es.LPWarmStarts)) {
		t.Errorf("solver one-liner %q does not describe the epoch's %d solves, %d warm", line, es.LPSolves, es.LPWarmStarts)
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

// TestEpochStringCountsRounds: an epoch's one-liner counts its own
// simplex solves, one per pricing round, and those that started warm —
// not the one epoch every record is.
func TestEpochStringCountsRounds(t *testing.T) {
	r := EpochRecord{LPSolves: 3, LPWarmStarts: 2, ColGenRounds: 3, ColGenColumns: 52}
	r.Iters = 19
	want := "3 solves, 19 iters (6.3 avg/solve, 0 phase1), solve 0s (pricing 0%, factor 0s, ftran 0s, btran 0s), 0 refactor (0 nnz), colgen 3 rounds/52 columns, 2 warm"
	if got := r.String(); got != want {
		t.Errorf("epoch one-liner:\n got %q\nwant %q", got, want)
	}
}

// TestObserveLPAbandonedSolve renders an epoch whose column generation the
// solver abandoned (a singular basis, say): its rounds count as solves,
// with the work the finished rounds reported, but not as a finished
// pricing loop. An epoch that failed with a status counts both.
func TestObserveLPAbandonedSolve(t *testing.T) {
	for _, tc := range []struct {
		status          string
		rounds, columns float64 // the colgen totals it adds
	}{{statusError, 0, 0}, {"iteration limit", 3, 8}} {
		reg := obs.NewRegistry()
		r := EpochRecord{Status: tc.status, LPSolves: 3, LPWarmStarts: 1, ColGenRounds: 3, ColGenColumns: 8}
		r.Iters = 40
		r.observeLP(obs.RegisterLP(reg))
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
		b, err := json.Marshal(EpochRecord{Epoch: 3, Rows: 70, Cols: 340, Stalled: stalled}.traceInfo("lips", false))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(b), `"stalled":true`); got != stalled || (!stalled && strings.Contains(string(b), "stalled")) {
			t.Errorf("stalled=%v: epoch event %s", stalled, b)
		}
	}
}
