package sched

import (
	"math"
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/sim"
	"lips/internal/workload"
)

// hookSched adapts closures to sim.Scheduler for white-box tests.
type hookSched struct {
	sim.NopNodeEvents
	init      func(*sim.Sim)
	onArrival func(*sim.Sim, int)
}

func (h *hookSched) Name() string { return "hook" }
func (h *hookSched) Init(s *sim.Sim) {
	if h.init != nil {
		h.init(s)
	}
}
func (h *hookSched) OnJobArrival(s *sim.Sim, j int) {
	if h.onArrival != nil {
		h.onArrival(s, j)
	}
}
func (h *hookSched) OnSlotFree(*sim.Sim, cluster.NodeID) {}
func (h *hookSched) OnTaskDone(*sim.Sim, int, int)       {}

// churnPlan is the acceptance scenario from the issue: two crashes, one
// recovery, one store data loss and a straggler window, all inside the
// workload's busy phase.
func churnPlan() *sim.FaultPlan {
	return &sim.FaultPlan{Faults: []sim.Fault{
		{At: 30, Kind: sim.FaultNodeDown, Node: 0},
		{At: 45, Kind: sim.FaultStoreLoss, Store: 1},
		{At: 60, Kind: sim.FaultNodeDown, Node: 3},
		{At: 80, Kind: sim.FaultSlowdown, Node: 2, Factor: 2, DurationSec: 100},
		{At: 200, Kind: sim.FaultNodeUp, Node: 0},
	}}
}

// TestSchedulersCompleteUnderChurn drives all four schedulers through the
// same churn scenario — node 3 never comes back — and requires every job
// to finish, deterministically.
func TestSchedulersCompleteUnderChurn(t *testing.T) {
	type mk struct {
		label string
		make  func() sim.Scheduler
		opts  sim.Options
	}
	for _, m := range []mk{
		{"fifo", func() sim.Scheduler { return NewFIFO() }, sim.Options{}},
		{"delay", func() sim.Scheduler { return NewDelay() }, sim.Options{}},
		{"fair", func() sim.Scheduler { return NewFair() }, sim.Options{}},
		{"lips", func() sim.Scheduler { return NewLiPS(200) }, sim.Options{TaskTimeoutSec: 1200}},
	} {
		t.Run(m.label, func(t *testing.T) {
			run := func() *sim.Result {
				c := mixedCluster()
				w := smallJobSet(rand.New(rand.NewSource(3)), 3)
				opts := m.opts
				opts.Faults = churnPlan()
				return runSched(t, c, w, nil, m.make(), opts)
			}
			r := run()
			if r.Faults.NodesCrashed != 2 || r.Faults.NodesRecovered != 1 || r.Faults.StoresLost != 1 {
				t.Errorf("fault stats = %+v, want 2 crashes / 1 recovery / 1 store loss", r.Faults)
			}
			for j, done := range r.JobDone {
				if done <= 0 {
					t.Errorf("job %d never finished under churn", j)
				}
			}
			again := run()
			if r.Makespan != again.Makespan || r.TotalCost() != again.TotalCost() {
				t.Errorf("churn run not reproducible: makespan %g vs %g, cost %v vs %v",
					r.Makespan, again.Makespan, r.TotalCost(), again.TotalCost())
			}
			if r.Faults != again.Faults {
				t.Errorf("fault stats diverged: %+v vs %+v", r.Faults, again.Faults)
			}
		})
	}
}

// TestLiPSReuseAcrossRuns re-runs one *LiPS instance and requires the
// second run to match both the first and a fresh instance — Init must
// reset every piece of run-scoped state (stats, error, staleness,
// seed hints, round-robin cursors).
func TestLiPSReuseAcrossRuns(t *testing.T) {
	run := func(l *LiPS) *sim.Result {
		c, w := warmStartScenario()
		r, err := sim.New(c, w, w.Placement(), l, sim.Options{TaskTimeoutSec: 1e9}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if l.Err != nil {
			t.Fatalf("scheduler error: %v", l.Err)
		}
		return r
	}
	l := NewLiPS(200)
	r1 := run(l)
	epochs1, iters1, moved1, blocks1 := l.Epochs, l.LPIters, l.TasksMoved, l.BlocksMoved
	warm1 := l.Solver.WarmAccepted

	r2 := run(l) // same instance, second run
	if r1.Makespan != r2.Makespan || r1.TotalCost() != r2.TotalCost() {
		t.Errorf("reused instance diverged: makespan %g vs %g, cost %v vs %v",
			r1.Makespan, r2.Makespan, r1.TotalCost(), r2.TotalCost())
	}
	if l.Epochs != epochs1 || l.LPIters != iters1 || l.TasksMoved != moved1 || l.BlocksMoved != blocks1 {
		t.Errorf("stats not reset: run1 (%d epochs, %d iters, %d tasks, %d blocks) vs run2 (%d, %d, %d, %d)",
			epochs1, iters1, moved1, blocks1, l.Epochs, l.LPIters, l.TasksMoved, l.BlocksMoved)
	}
	if l.Solver.WarmAccepted != warm1 {
		t.Errorf("warm-start path diverged: %d accepted vs %d — stale basis leaked across runs?",
			warm1, l.Solver.WarmAccepted)
	}

	r3 := run(NewLiPS(200)) // fresh instance as the reference
	if r1.Makespan != r3.Makespan || r1.TotalCost() != r3.TotalCost() {
		t.Errorf("reused instance differs from fresh: makespan %g vs %g, cost %v vs %v",
			r1.Makespan, r3.Makespan, r1.TotalCost(), r3.TotalCost())
	}
}

// TestFallbackSkipsInFlightMoves pins the satellite race: the rounding
// fallback must not enqueue a task whose input block is still being
// relocated — the read would race the landing block.
func TestFallbackSkipsInFlightMoves(t *testing.T) {
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "t", 2, 2, cost.Millicents(1), 1e6)
	b.AddNode("zb", "t", 2, 2, cost.Millicents(1), 1e6)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	wb.AddInputJob("j", "u", arch, 128, 0, 0) // 2 blocks on store 0
	w := wb.Build()

	l := NewLiPS(400) // driven manually through fallback, never Init'd
	hs := &hookSched{}
	hs.onArrival = func(s *sim.Sim, j int) {
		doneAt := s.MoveBlock(0, 0, 1) // block 0: za → zb, in flight
		l.fallback(s, []int{j})
		// Block 1 sits still and must be enqueued data-locally; block 0's
		// task must be left alone while its move is in flight.
		pending := s.PendingTasks(j)
		if len(pending) != 1 || pending[0] != 0 {
			t.Errorf("pending after fallback = %v, want just task 0 (move in flight)", pending)
		}
		s.At(doneAt+0.01, func() {
			if _, _, inFlight := s.BlockMove(0, 0); inFlight {
				t.Error("move still reported in flight after its landing time")
			}
			if got := s.P.Primary(0, 0); got != 1 {
				t.Errorf("block 0 primary = %d after move, want 1", got)
			}
			l.fallback(s, []int{j})
			if got := len(s.PendingTasks(j)); got != 0 {
				t.Errorf("pending after landing = %d, want 0", got)
			}
		})
	}
	r, err := sim.New(c, w, w.Placement(), hs, sim.Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if l.Err != nil {
		t.Fatalf("fallback error: %v", l.Err)
	}
	for j, done := range r.JobDone {
		if done <= 0 {
			t.Errorf("job %d never finished", j)
		}
	}
}

// TestLiPSSpotPricingAgreement doubles every price through the shared
// PriceMultiplier hook. Planner and biller sample the same multiplier
// convention, and a uniform scaling must leave the schedule untouched
// while exactly doubling the CPU bill.
func TestLiPSSpotPricingAgreement(t *testing.T) {
	run := func(mult func(string, float64) float64) *sim.Result {
		c := mixedCluster()
		w := smallJobSet(rand.New(rand.NewSource(3)), 3)
		l := NewLiPS(400)
		l.PriceMultiplier = mult
		return runSched(t, c, w, nil, l, sim.Options{TaskTimeoutSec: 1200, PriceMultiplier: mult})
	}
	base := run(nil)
	doubled := run(func(string, float64) float64 { return 2 })
	if base.Makespan != doubled.Makespan {
		t.Errorf("uniform price scaling changed the schedule: makespan %g vs %g",
			base.Makespan, doubled.Makespan)
	}
	ratio := float64(doubled.Cost.Category(cost.CatCPU)) / float64(base.Cost.Category(cost.CatCPU))
	if math.Abs(ratio-2) > 1e-6 {
		t.Errorf("cpu bill scaled by %.9f, want exactly 2", ratio)
	}
}
