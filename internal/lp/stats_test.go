package lp

import (
	"math/rand"
	"testing"
	"time"
)

// TestPhaseTimesFitTheSolve: the four phase times are estimates scaled to
// the pivot loops' wall-clock, so on a solve of a few pivots — one of
// them timed — as on one of hundreds, they sum to no more than the wall
// time around Solve, and they are not all zero.
func TestPhaseTimesFitTheSolve(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Problem
	}{
		{"small", schedulingShapedLP(3, 3, 3, rand.New(rand.NewSource(5)))},
		{"epoch", epochScaleLP(nil)},
	} {
		t0 := time.Now()
		sol, err := tc.p.Solve(Options{})
		wall := time.Since(t0)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s: %v, status %v", tc.name, err, sol.Status)
		}
		sum := sol.PricingTime + sol.FactorTime + sol.FtranTime + sol.BtranTime
		t.Logf("%s: %d pivots in %v; pricing %v, factor %v, FTRAN %v, BTRAN %v", tc.name, sol.Iters, wall,
			sol.PricingTime, sol.FactorTime, sol.FtranTime, sol.BtranTime)
		if sum <= 0 || sum > wall {
			t.Errorf("%s: the phases sum to %v, the solve took %v", tc.name, sum, wall)
		}
	}
}
