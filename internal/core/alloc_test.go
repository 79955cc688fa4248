//go:build !race

package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// allocsNoGC is testing.AllocsPerRun with the collector off and on one P.
// Masters, instance matrices and simplex workspaces come from sync.Pools.
// A collection empties them, and a Get on another P than the last Put's
// misses the item, so on the default runtime a count drifts with when a
// collection runs and where the goroutine is scheduled.
func allocsNoGC(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestBuildAllocs gates what forming an epoch's LP allocates — a count, so
// it holds on any machine where the benchmark's wall-clock bound cannot:
// at most 1 % of what the map-and-Sprintf builders spent (12 092 / 48 109
// allocations for BuildOnlineModel at 2 880 / 11 520 columns, 12 201 /
// 48 228 for the master with every unit materialized). A master released
// after each build reuses the last one's LP, layout and price classes,
// and finds its greedy seed in its own seed list: all it allocates is the
// OnlineColGen handle (1 / 1, where a map-based greedy plan cost 46 / 166).
func TestBuildAllocs(t *testing.T) {
	for _, tc := range []struct {
		jobs, cols, direct, master, recycled int
	}{
		{8, 2880, 120, 400, 1},
		{32, 11520, 480, 800, 1},
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
		direct := allocsNoGC(10, func() {
			if m, err = BuildOnlineModel(in); err != nil {
				t.Fatal(err)
			}
		})
		master := allocsNoGC(10, func() {
			if cg, err = NewOnlineColGen(in, ColGenOptions{SeedMachines: all}); err != nil {
				t.Fatal(err)
			}
		})
		if m.NumVars() != tc.cols || cg.m.NumVars() != tc.cols || len(cg.m.lay.units) != 19 {
			t.Fatalf("%d jobs: direct has %d columns, master %d over %d units; want %d on 19 units",
				tc.jobs, m.NumVars(), cg.m.NumVars(), len(cg.m.lay.units), tc.cols)
		}
		// Released after each build, the master rewrites the storage the
		// one before it left in the pool.
		recycled := allocsNoGC(10, func() {
			rc, err := NewOnlineColGen(in, ColGenOptions{SeedMachines: all})
			if err != nil {
				t.Fatal(err)
			}
			rc.Release()
		})
		if direct > float64(tc.direct) {
			t.Errorf("%d jobs: BuildOnlineModel allocates %.0f times, budget %d", tc.jobs, direct, tc.direct)
		}
		if master > float64(tc.master) {
			t.Errorf("%d jobs: NewOnlineColGen with every unit materialized allocates %.0f times, budget %d", tc.jobs, master, tc.master)
		}
		if recycled > float64(tc.recycled) {
			t.Errorf("%d jobs: a recycled NewOnlineColGen with every unit materialized allocates %.0f times, budget %d", tc.jobs, recycled, tc.recycled)
		}
		t.Logf("%d jobs: BuildOnlineModel %.0f allocs, NewOnlineColGen %.0f, recycled %.0f", tc.jobs, direct, master, recycled)
	}

	// A fresh master leaves all but its greedy seed closed, and sorts
	// those into price classes. Here every unit is a class of its own, so
	// nothing is shared, yet one budget holds at 180 and at 1 800 units:
	// 57 and 76 allocations, where a fingerprint string per closed
	// machine cost 661 and 5 544 and a map-based greedy seed plan 99 and
	// 117.
	const closedBudget = 90
	for _, units := range []int{180, 1800} {
		rng := rand.New(rand.NewSource(1))
		in := synthInstance(8, units, 18, 6, true, rng)
		fillSS(in, rng)
		in.AddFakeNode(FakeNodePriceMC)
		var cg *OnlineColGen
		var err error
		allocs := allocsNoGC(10, func() {
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
// over its 180 units, its matrices returned to the pool after each as an
// epoch returns them: they are refilled from the units' zone rows, so the
// count is the instance's own slices and its items, whatever the
// cluster's size (21; 27 with fresh matrices).
func TestInstanceAllocs(t *testing.T) {
	build := hetero10k(t)
	allocs := allocsNoGC(10, func() { build().releaseMatrices() })
	if allocs > 25 {
		t.Errorf("Units.Instance allocates %.0f times, budget 25", allocs)
	}
	t.Logf("Units.Instance: %.0f allocs", allocs)
}
