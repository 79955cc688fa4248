//go:build !race

package core

import (
	"math/rand"
	"testing"
)

// TestBuildAllocs gates what forming an epoch's LP allocates — a count, so
// it holds on any machine where the benchmark's wall-clock bound cannot:
// at most 1 % of what the map-and-Sprintf builders spent (12 092 / 48 109
// allocations for BuildOnlineModel at 2 880 / 11 520 columns, 12 201 /
// 48 228 for the master with every unit materialized).
func TestBuildAllocs(t *testing.T) {
	for _, tc := range []struct {
		jobs, cols, direct, master int
	}{
		{8, 2880, 120, 400},
		{32, 11520, 480, 800},
	} {
		rng := rand.New(rand.NewSource(1))
		in := synthInstance(tc.jobs, 18, 18, 6, true, rng)
		fillSS(in, rng)
		in.AddFakeNode(FakeNodePriceMC)
		all := make([]int, len(in.Machines))
		for l := range all {
			all[l] = l
		}

		var m *Model
		var cg *OnlineColGen
		var err error
		direct := testing.AllocsPerRun(10, func() {
			if m, err = BuildOnlineModel(in); err != nil {
				t.Fatal(err)
			}
		})
		master := testing.AllocsPerRun(10, func() {
			if cg, err = NewOnlineColGen(in, ColGenOptions{SeedMachines: all}); err != nil {
				t.Fatal(err)
			}
		})
		if m.NumVars() != tc.cols || cg.m.NumVars() != tc.cols || cg.machines != 19 {
			t.Fatalf("%d jobs: direct has %d columns, master %d over %d units; want %d on 19 units",
				tc.jobs, m.NumVars(), cg.m.NumVars(), cg.machines, tc.cols)
		}
		if direct > float64(tc.direct) {
			t.Errorf("%d jobs: BuildOnlineModel allocates %.0f times, budget %d", tc.jobs, direct, tc.direct)
		}
		if master > float64(tc.master) {
			t.Errorf("%d jobs: NewOnlineColGen with every unit materialized allocates %.0f times, budget %d", tc.jobs, master, tc.master)
		}
		t.Logf("%d jobs: BuildOnlineModel %.0f allocs, NewOnlineColGen %.0f", tc.jobs, direct, master)
	}
}
