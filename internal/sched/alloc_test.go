//go:build !race

package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"lips/internal/cluster"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/sim"
	"lips/internal/workload"
)

// stream is a LiPS run the way the daemon drives it: a random cluster
// stepped in 60 s epochs, with perEpoch grep jobs of 4–15 blocks admitted
// before each. With churn, one node is down for the second half of every
// eight epochs, so FilterMachines reshapes the instance as it does on
// stream-10k-hetero.
type stream struct {
	l     *LiPS
	epoch func()
}

// newStream starts a stream that runs at most epochs epochs. The job
// names are formatted up front, so a measured epoch counts none of it.
func newStream(t *testing.T, spec cluster.RandomSpec, perEpoch, epochs int, churn bool) *stream {
	t.Helper()
	c := cluster.Random(rand.New(rand.NewSource(1)), spec)
	l := NewLiPS(60)
	s := sim.New(c, &workload.Workload{}, nil, l, sim.Options{Metrics: obs.NewRegistry()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	names := make([]string, epochs*perEpoch)
	for i := range names {
		names[i] = fmt.Sprintf("grep-%d", i)
	}
	submitted, ran := 0, 0
	victim := cluster.NodeID(rng.Intn(len(c.Nodes)))
	st := &stream{l: l}
	st.epoch = func() {
		if ran == epochs {
			t.Fatalf("the stream runs at most %d epochs", epochs)
		}
		if churn && ran%4 == 0 {
			kind := sim.FaultNodeDown
			if ran%8 == 0 {
				kind = sim.FaultNodeUp
			}
			if err := s.InjectFault(sim.Fault{At: s.Now(), Kind: kind, Node: victim}); err != nil {
				t.Fatal(err)
			}
		}
		ran++
		for i := 0; i < perEpoch; i++ {
			name := names[submitted]
			submitted++
			if _, err := s.AddJob(workload.Job{
				Name: name, User: "tenant", Archetype: workload.Grep.Name,
				CPUSecPerMB: workload.Grep.CPUSecPerMB(), AccessFrac: 0.5 + 0.5*rng.Float64(),
			}, &hdfs.DataObject{
				Name: name, SizeMB: float64(4+rng.Intn(12)) * 64,
				Origin: cluster.StoreID(rng.Intn(len(c.Stores))),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.StepUntil(s.Now() + 60); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// noGC runs f with the collector off and on one P, and restores both
// settings. The epoch draws its LP, instance matrices and simplex
// workspace from sync.Pools. A collection empties them, and a Get on
// another P than the last Put's misses the item, so a count taken on the
// default runtime drifts with when a collection runs and where the
// goroutine is scheduled. Under noGC every measured epoch finds the pools
// as the epoch before it left them.
func noGC(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
}

// steady runs warmup epochs of st, the last ten under noGC so the pools
// hold what the epochs need, then measure(epoch), and checks that every
// measured epoch planned.
func (st *stream) steady(t *testing.T, warmup, measured int, measure func(epoch func())) {
	t.Helper()
	const settle = 10
	for e := 0; e < warmup-settle; e++ {
		st.epoch()
	}
	var before int
	noGC(func() {
		for e := 0; e < settle; e++ {
			st.epoch()
		}
		before = st.l.Epochs
		measure(st.epoch)
	})
	if st.l.Err != nil {
		t.Fatal(st.l.Err)
	}
	if planned := st.l.Epochs - before; planned < measured {
		t.Fatalf("%d of %d measured epochs planned", planned, measured)
	}
}

// TestEpochAllocs gates what one steady-state LiPS epoch allocates — a
// count, so it holds on any machine where a wall-clock bound cannot. The
// run is the daemon's: a 1k-node cluster stepped in 60 s epochs with five
// grep jobs admitted before each, measured long after the first epochs
// have sized every reused workspace. The budget covers admission, the
// simulated epoch and planEpoch together; the restricted master, the
// instance matrices and the simplex workspace come from pools, so what
// remains is mostly the rounds' solutions, the greedy seed, the plan and
// its rounding: 400–409 allocations, where a fresh master each epoch cost
// 484–489. The count still moves a little from run to run because the
// hash-seeded maps on the path grow differently.
func TestEpochAllocs(t *testing.T) {
	const warmup, measured = 100, 40
	st := newStream(t, cluster.RandomSpec{Nodes: 1000}, 5, warmup+measured+1, false)
	var allocs float64
	st.steady(t, warmup, measured, func(epoch func()) { allocs = testing.AllocsPerRun(measured, epoch) })
	const budget = 430
	if allocs > budget {
		t.Errorf("a steady-state epoch allocates %.0f times, budget %d", allocs, budget)
	}
	t.Logf("steady-state epoch: %.0f allocations", allocs)
}

// TestEpochBytes gates the bytes a steady-state LiPS epoch allocates, on
// the 1k-node shape of TestEpochAllocs and on stream-10k-hetero's: 10k
// nodes of 60 instance types, eight jobs an epoch and node churn. Reusing
// the epoch's LP, the master's layout and the instance matrices is what
// keeps these small: 58 KB and 280–282 KB, where a fresh master and fresh
// matrices each epoch cost 136 KB and 2 016–2 019 KB.
func TestEpochBytes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		spec     cluster.RandomSpec
		perEpoch int
		churn    bool
		budgetKB uint64
	}{
		{"1k", cluster.RandomSpec{Nodes: 1000}, 5, false, 66},
		{"hetero10k", cluster.RandomSpec{Nodes: 10000, Types: 60}, 8, true, 320},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const warmup, measured = 20, 40
			st := newStream(t, tc.spec, tc.perEpoch, warmup+measured, tc.churn)
			var perEpoch uint64
			st.steady(t, warmup, measured, func(epoch func()) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for e := 0; e < measured; e++ {
					epoch()
				}
				runtime.ReadMemStats(&after)
				perEpoch = (after.TotalAlloc - before.TotalAlloc) / measured
			})
			if kb := perEpoch / 1024; kb > tc.budgetKB {
				t.Errorf("a steady-state epoch allocates %d KB, budget %d KB", kb, tc.budgetKB)
			}
			t.Logf("steady-state epoch: %d KB", perEpoch/1024)
		})
	}
}

// pausable forwards every callback to the scheduler it wraps except
// OnSlotFree, which it drops while paused: free slots and pending work
// then pile up side by side, so that the scheduler's own OnSlotFree has
// a real decision to make on every idle node.
type pausable struct {
	sim.Scheduler
	paused bool
}

func (p *pausable) OnSlotFree(s *sim.Sim, n cluster.NodeID) {
	if !p.paused {
		p.Scheduler.OnSlotFree(s, n)
	}
}

// TestSlotFreeAllocs gates what one slot-free decision of FIFO, Delay
// and Fair allocates — a count, like TestEpochAllocs. The paper's
// 100-node SWIM day runs to 06:00; then the slot-free path pauses for two
// hours: the jobs that arrive meanwhile wait with every task Pending
// (2020 tasks over 41 jobs), the running work drains, and each measured
// call hands the scheduler another idle node. Walking the job index and
// asking the locality indexes allocates nothing; the rescans the job
// index replaced allocated 13 times a call under FIFO and 71 under
// Delay, and Fair's per-call pool maps 18. Delay's budget leaves one
// allocation for its maps, whose growth differs between Go runtimes.
func TestSlotFreeAllocs(t *testing.T) {
	const runs = 20
	for _, tc := range []struct {
		name   string
		sched  sim.Scheduler
		budget float64
	}{
		{"fifo", NewFIFO(), 0},
		{"delay", NewDelay(), 1},
		{"fair", NewFair(), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.Paper100()
			w := workload.SWIM(rand.New(rand.NewSource(1)), c.StoreIDs(), workload.DefaultSWIMSpec())
			pl := w.Placement()
			pl.Shuffle(rand.New(rand.NewSource(1)), c.StoreIDs())
			p := &pausable{Scheduler: tc.sched}
			s := sim.New(c, w, pl, p, sim.Options{})
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			if err := s.StepUntil(6 * 3600); err != nil {
				t.Fatal(err)
			}
			p.paused = true
			if err := s.StepUntil(8 * 3600); err != nil {
				t.Fatal(err)
			}
			pending, _, _, _ := s.StateCounts()
			idle := s.IdleNodes(nil)
			if pending == 0 || len(idle) <= runs {
				t.Fatalf("paused with %d pending tasks and %d idle nodes", pending, len(idle))
			}
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				tc.sched.OnSlotFree(s, idle[i])
				i++
			})
			if allocs > tc.budget {
				t.Errorf("one %s OnSlotFree allocates %.0f times, budget %.0f", tc.name, allocs, tc.budget)
			}
			t.Logf("%s OnSlotFree: %.0f allocations", tc.name, allocs)
		})
	}
}
