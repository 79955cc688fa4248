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
		if m.NumVars() != tc.cols || cg.m.NumVars() != tc.cols || len(cg.m.lay.units) != 19 {
			t.Fatalf("%d jobs: direct has %d columns, master %d over %d units; want %d on 19 units",
				tc.jobs, m.NumVars(), cg.m.NumVars(), len(cg.m.lay.units), tc.cols)
		}
		if direct > float64(tc.direct) {
			t.Errorf("%d jobs: BuildOnlineModel allocates %.0f times, budget %d", tc.jobs, direct, tc.direct)
		}
		if master > float64(tc.master) {
			t.Errorf("%d jobs: NewOnlineColGen with every unit materialized allocates %.0f times, budget %d", tc.jobs, master, tc.master)
		}
		t.Logf("%d jobs: BuildOnlineModel %.0f allocs, NewOnlineColGen %.0f", tc.jobs, direct, master)
	}

	// A fresh master leaves all but its greedy seed closed, and sorts
	// those into price classes. Here every unit is a class of its own, so
	// nothing is shared, yet one budget holds at 180 and at 1 800 units:
	// 111 and 126 allocations, where a fingerprint string per closed
	// machine cost 661 and 5 544.
	const closedBudget = 140
	for _, units := range []int{180, 1800} {
		rng := rand.New(rand.NewSource(1))
		in := synthInstance(8, units, 18, 6, true, rng)
		fillSS(in, rng)
		in.AddFakeNode(FakeNodePriceMC)
		var cg *OnlineColGen
		var err error
		allocs := testing.AllocsPerRun(10, func() {
			if cg, err = NewOnlineColGen(in, ColGenOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if closed := units + 1 - len(cg.m.lay.units); len(cg.buckets) != closed {
			t.Fatalf("%d units: %d buckets for %d closed machines, want one each", units, len(cg.buckets), closed)
		}
		if allocs > closedBudget {
			t.Errorf("%d units: NewOnlineColGen with %d closed machines allocates %.0f times, budget %d", units, len(cg.buckets), allocs, closedBudget)
		}
		t.Logf("%d units: NewOnlineColGen with %d closed allocates %.0f times", units, len(cg.buckets), allocs)
	}
}

// TestInstanceAllocs gates one stream-10k-hetero epoch's Units.Instance
// over its 180 units: the matrices are filled from the units' zone rows,
// so the count is the instance's own slices and its items, whatever the
// cluster's size.
func TestInstanceAllocs(t *testing.T) {
	build := hetero10k(t)
	allocs := testing.AllocsPerRun(10, func() { build() })
	if allocs > 60 {
		t.Errorf("Units.Instance allocates %.0f times, budget 60", allocs)
	}
	t.Logf("Units.Instance: %.0f allocs", allocs)
}
