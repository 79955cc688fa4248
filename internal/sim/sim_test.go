package sim

import (
	"math"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/obs"
	"lips/internal/workload"
)

// stubSched adapts closures to the Scheduler interface.
type stubSched struct {
	NopNodeEvents
	name       string
	init       func(*Sim)
	onArrival  func(*Sim, int)
	onSlotFree func(*Sim, cluster.NodeID)
	onTaskDone func(*Sim, int, int)
}

func (ss *stubSched) Name() string {
	if ss.name == "" {
		return "stub"
	}
	return ss.name
}
func (ss *stubSched) Init(s *Sim) {
	if ss.init != nil {
		ss.init(s)
	}
}
func (ss *stubSched) OnJobArrival(s *Sim, j int) {
	if ss.onArrival != nil {
		ss.onArrival(s, j)
	}
}
func (ss *stubSched) OnSlotFree(s *Sim, n cluster.NodeID) {
	if ss.onSlotFree != nil {
		ss.onSlotFree(s, n)
	}
}
func (ss *stubSched) OnTaskDone(s *Sim, j, t int) {
	if ss.onTaskDone != nil {
		ss.onTaskDone(s, j, t)
	}
}

// greedyStub launches any pending task on any free slot, reading the best
// replica — enough to drive jobs to completion in unit tests.
func greedyStub() *stubSched {
	ss := &stubSched{name: "greedy-stub"}
	assign := func(s *Sim, n cluster.NodeID) {
		for s.FreeSlots(n) > 0 {
			launched := false
			for _, j := range s.ArrivedJobs() {
				pending := s.PendingTasks(j)
				if len(pending) == 0 {
					continue
				}
				store := NoStore
				if s.W.Jobs[j].HasInput() {
					store = s.BestReplica(j, pending[0], n)
				}
				if err := s.Launch(j, pending[0], n, store); err != nil {
					continue
				}
				launched = true
				break
			}
			if !launched {
				return
			}
		}
	}
	ss.onSlotFree = assign
	ss.onArrival = func(s *Sim, _ int) { s.KickIdleNodes() }
	return ss
}

// oneNodeCluster builds a single-zone, single-node cluster: 2 ECU, 2
// slots, 1 mc/ECU·s.
func oneNodeCluster() *cluster.Cluster {
	b := cluster.NewBuilder("za")
	b.AddNode("za", "t", 2, 2, cost.Millicents(1), 1e6)
	return b.Build()
}

func twoTaskJob() *workload.Workload {
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	wb.AddInputJob("j", "u", arch, 128, 0, 0) // 2 blocks → 2 tasks, 64 ECU-sec each
	return wb.Build()
}

func TestSingleJobExactAccounting(t *testing.T) {
	c := oneNodeCluster()
	w := twoTaskJob()
	s := New(c, w, nil, greedyStub(), Options{})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each task: 64 MB / 100 MB/s = 0.64 s transfer + 64 ECU-sec at
	// slotECU 1 = 64 s. Two slots run both tasks in parallel.
	if math.Abs(r.Makespan-64.64) > 1e-6 {
		t.Errorf("makespan = %g, want 64.64", r.Makespan)
	}
	// CPU: 128 ECU-sec at 1 mc. Transfer: node-local, free.
	if got := r.Cost.Category(cost.CatCPU); got != cost.Millicents(128) {
		t.Errorf("cpu cost = %v, want 128 mc", got.ToMillicents())
	}
	if got := r.Cost.Category(cost.CatTransfer); got != 0 {
		t.Errorf("transfer cost = %v, want 0", got)
	}
	if r.Locality.Count(0) != 2 { // NodeLocal
		t.Errorf("locality counts: %+v", r.Locality)
	}
	if r.JobDone[0] != r.Makespan {
		t.Errorf("JobDone = %v", r.JobDone)
	}
	if r.Fairness != 1 {
		t.Errorf("fairness = %g for a single user", r.Fairness)
	}
	// Utilization: 2 slots busy 64.64 s each out of 2×64.64.
	if math.Abs(r.Utilization-1) > 1e-9 {
		t.Errorf("utilization = %g", r.Utilization)
	}
}

func TestCrossZoneTransferBilled(t *testing.T) {
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "t", 2, 2, cost.Millicents(1), 1e6)
	b.AddNode("zb", "t", 2, 2, cost.Millicents(1), 1e6)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	wb.AddInputJob("j", "u", arch, 64, 0, 0) // data in za
	w := wb.Build()
	// Force the task onto the zb node.
	ss := &stubSched{name: "remote"}
	ss.onArrival = func(s *Sim, j int) {
		if err := s.Launch(j, 0, 1, 0); err != nil {
			t.Error(err)
		}
	}
	s := New(c, w, nil, ss, Options{})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 64 MB across zones at $0.01/GB = 62.5 mc.
	if got := r.Cost.Category(cost.CatTransfer); got != cost.Millicents(62.5) {
		t.Errorf("transfer = %g mc, want 62.5", got.ToMillicents())
	}
	// Transfer at 31.25 MB/s takes 2.048 s, then 64 ECU-sec at slotECU 1.
	if math.Abs(r.Makespan-(64/31.25+64)) > 1e-6 {
		t.Errorf("makespan = %g", r.Makespan)
	}
	if r.Locality.Count(2) != 1 { // Remote
		t.Error("task should be remote")
	}
}

func TestLaunchValidation(t *testing.T) {
	c := oneNodeCluster()
	w := twoTaskJob()
	ss := &stubSched{}
	ss.onArrival = func(s *Sim, j int) {
		if err := s.Launch(j, 0, 0, NoStore); err == nil {
			t.Error("input job launched without store")
		}
		if err := s.Launch(j, 0, 0, 99); err == nil {
			t.Error("launch with out-of-range store")
		}
		if err := s.Launch(j, 0, 0, 0); err != nil {
			t.Error(err)
		}
		if err := s.Launch(j, 0, 0, 0); err == nil {
			t.Error("double launch")
		}
		if err := s.Launch(j, 1, 0, 0); err != nil {
			t.Error(err)
		}
		if err := s.Launch(j, 1, 0, 0); err == nil {
			t.Error("no free slot")
		}
	}
	if _, err := New(c, w, nil, ss, Options{}).Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveBlockThenEnqueue(t *testing.T) {
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "t", 1, 1, cost.Millicents(1), 1e6)
	b.AddNode("zb", "t", 1, 1, cost.Millicents(1), 1e6)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	wb.AddInputJob("j", "u", arch, 64, 0, 0)
	w := wb.Build()
	var moveDone float64
	ss := &stubSched{}
	ss.onArrival = func(s *Sim, j int) {
		moveDone = s.MoveBlock(0, 0, 1) // za → zb
		if err := s.Enqueue(j, 0, 1, 1, moveDone); err != nil {
			t.Error(err)
		}
	}
	s := New(c, w, nil, ss, Options{})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Move: 64 MB at 31.25 MB/s = 2.048 s. Then local read (0.64 s) and
	// 64 s compute.
	want := 64/31.25 + 0.64 + 64
	if math.Abs(r.Makespan-want) > 1e-6 {
		t.Errorf("makespan = %g, want %g (move must precede launch)", r.Makespan, want)
	}
	// Placement charged 62.5 mc; runtime read is then node-local (free).
	if got := r.Cost.Category(cost.CatPlacement); got != cost.Millicents(62.5) {
		t.Errorf("placement = %g mc", got.ToMillicents())
	}
	if got := r.Cost.Category(cost.CatTransfer); got != 0 {
		t.Errorf("transfer = %v, want 0 after relocation", got)
	}
	if s.P.Primary(0, 0) != 1 {
		t.Error("placement not updated after move")
	}
}

func TestTimeoutRetries(t *testing.T) {
	// 0.01 MB/s cross-zone: a 64 MB read takes 6400 s >> the 10-minute
	// timeout. The task must be killed, retried, and eventually the
	// timeout waived so the run terminates.
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "t", 1, 1, cost.Millicents(1), 1e6)
	b.AddNode("zb", "t", 1, 1, cost.Millicents(1), 1e6)
	bw := cluster.DefaultBandwidths()
	bw.InterZoneMBps = 0.01
	b.SetBandwidths(bw)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 1}
	wb.AddInputJob("j", "u", arch, 64, 0, 0)
	w := wb.Build()
	// Pin the task to the remote node so every attempt must cross zones.
	ss := &stubSched{}
	launches := 0
	ss.onSlotFree = func(s *Sim, n cluster.NodeID) {
		if n != 1 {
			return
		}
		for _, j := range s.ArrivedJobs() {
			for _, task := range s.PendingTasks(j) {
				if s.Launch(j, task, 1, 0) == nil {
					launches++
				}
			}
		}
	}
	ss.onArrival = func(s *Sim, _ int) { s.KickIdleNodes() }
	reg := obs.NewRegistry()
	s := New(c, w, nil, ss, Options{maxAttempts: 2, Metrics: reg})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if launches < 3 {
		t.Errorf("launches = %d, want ≥ 3 (2 timed-out attempts + 1 waived)", launches)
	}
	// Two timeout windows of 600 s each, then the full 6400 s transfer.
	if r.Makespan < 6400 {
		t.Errorf("makespan = %g, want > 6400", r.Makespan)
	}
	// Two timeout kills, each billing its partial read (600 s × 0.01 MB/s
	// = 6 MB), then the full 64 MB block.
	if kills, _ := reg.Value(obs.MSimKilled, "timeout"); kills != 2 {
		t.Errorf("timeout kills = %g, want 2", kills)
	}
	perGB := c.MSPerGB(1, 0)
	want := 2*perGB.MulFloat(6.0/1024) + perGB.MulFloat(64.0/1024)
	if got := r.Cost.Category(cost.CatTransfer); got != want {
		t.Errorf("transfer = %d µc, want %d (two 6 MB partial reads and the 64 MB block)", int64(got), int64(want))
	}
}

func TestMaxAttemptsWaivesTimeout(t *testing.T) {
	// One retry budget: the first attempt dies at the 600 s timeout, the
	// second exceeds the budget, so the timeout is waived and the 6400 s
	// transfer runs to completion.
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "t", 1, 1, cost.Millicents(1), 1e6)
	b.AddNode("zb", "t", 1, 1, cost.Millicents(1), 1e6)
	bw := cluster.DefaultBandwidths()
	bw.InterZoneMBps = 0.01
	b.SetBandwidths(bw)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 1}
	wb.AddInputJob("j", "u", arch, 64, 0, 0)
	w := wb.Build()
	ss := &stubSched{}
	launches := 0
	ss.onSlotFree = func(s *Sim, n cluster.NodeID) {
		if n != 1 {
			return
		}
		for _, j := range s.ArrivedJobs() {
			for _, task := range s.PendingTasks(j) {
				if s.Launch(j, task, 1, 0) == nil {
					launches++
				}
			}
		}
	}
	ss.onArrival = func(s *Sim, _ int) { s.KickIdleNodes() }
	r, err := New(c, w, nil, ss, Options{maxAttempts: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if launches != 2 {
		t.Errorf("launches = %d, want 2 (1 timed out + 1 waived)", launches)
	}
	// 600 s wasted window, then 64 MB / 0.01 MB/s + 1 s compute.
	if math.Abs(r.Makespan-(600+6400+1)) > 1e-6 {
		t.Errorf("makespan = %g, want 7001", r.Makespan)
	}
}

func TestSpeculativeExecution(t *testing.T) {
	// Two nodes, one slow (low ECU). The primary lands on the slow node;
	// with speculation enabled, the fast node duplicates it and wins.
	b := cluster.NewBuilder("za")
	b.AddNode("za", "slow", 0.1, 1, cost.Millicents(1), 1e6)
	b.AddNode("za", "fast", 10, 1, cost.Millicents(1), 1e6)
	c := b.Build()
	wb := workload.NewBuilder()
	wb.AddNoInputJob("j", "u", 1, 100, 0)
	w := wb.Build()
	ss := &stubSched{}
	ss.onArrival = func(s *Sim, j int) {
		if err := s.Launch(j, 0, 0, NoStore); err != nil {
			t.Error(err)
		}
		if !s.LaunchSpeculative(1) {
			t.Error("speculative launch refused")
		}
	}
	s := New(c, w, nil, ss, Options{Speculative: true})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Fast copy: 100 ECU-sec at 10 ECU/slot = 10 s, vs 1000 s on the
	// slow node.
	if math.Abs(r.Makespan-10) > 1e-6 {
		t.Errorf("makespan = %g, want 10 (speculative copy wins)", r.Makespan)
	}
	if got := r.Cost.Category(cost.CatSpeculative); got == 0 {
		t.Error("speculative waste not billed")
	}
}

func TestSpeculativeDisabled(t *testing.T) {
	c := oneNodeCluster()
	w := twoTaskJob()
	ss := &stubSched{}
	ss.onArrival = func(s *Sim, j int) {
		_ = s.Launch(j, 0, 0, 0)
		_ = s.Launch(j, 1, 0, 0)
		if s.LaunchSpeculative(0) {
			t.Error("speculative launch with feature disabled")
		}
	}
	if _, err := New(c, w, nil, ss, Options{}).Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKillTaskRunningBillsPartialBurn(t *testing.T) {
	// The node crashes halfway through both tasks and rejoins at t=40:
	// each attempt bills the 32 of its 64 ECU-sec it burned, and both
	// tasks re-run to completion on the recovered slots.
	plan := &FaultPlan{Faults: []Fault{
		{At: 32.64, Kind: FaultNodeDown, Node: 0},
		{At: 40, Kind: FaultNodeUp, Node: 0},
	}}
	s := New(oneNodeCluster(), twoTaskJob(), nil, greedyStub(), Options{Faults: plan})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Launched t=0, transfer done 0.64, killed 32.64: burned 32 ECU-sec each.
	if got, want := r.Cost.Category(cost.CatFault), 2*cost.CPUCost(cost.Millicents(1), 32); got != want {
		t.Errorf("kill burn = %v, want %v", got, want)
	}
	// The re-runs still bill their full demand.
	if got := r.Cost.Category(cost.CatCPU); got != cost.Millicents(128) {
		t.Errorf("cpu cost = %v, want 128 mc", got)
	}
	// Re-run from 40 on the recovered slots: 40 + 0.64 + 64.
	if math.Abs(r.Makespan-104.64) > 1e-6 {
		t.Errorf("makespan = %g, want 104.64", r.Makespan)
	}
}

func TestKillAttemptAfterSpeculativeWin(t *testing.T) {
	// The speculative copy wins; the superseded primary bills half its
	// demand as speculative waste (killAttempt's documented estimate).
	b := cluster.NewBuilder("za")
	b.AddNode("za", "slow", 0.1, 1, cost.Millicents(1), 1e6)
	b.AddNode("za", "fast", 10, 1, cost.Millicents(1), 1e6)
	c := b.Build()
	wb := workload.NewBuilder()
	wb.AddNoInputJob("j", "u", 1, 100, 0)
	w := wb.Build()
	ss := &stubSched{}
	ss.onArrival = func(s *Sim, j int) {
		if err := s.Launch(j, 0, 0, NoStore); err != nil {
			t.Error(err)
		}
		if !s.LaunchSpeculative(1) {
			t.Error("speculative launch refused")
		}
	}
	r, err := New(c, w, nil, ss, Options{Speculative: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Cost.Category(cost.CatSpeculative); got != cost.CPUCost(cost.Millicents(1), 50) {
		t.Errorf("killed primary billed %v, want half its 100 ECU-sec demand (50 mc)", got)
	}
	// The winning copy bills its full demand at its own node's price.
	if got := r.Cost.Category(cost.CatCPU); got != cost.CPUCost(cost.Millicents(1), 100) {
		t.Errorf("cpu cost = %v, want 100 mc", got)
	}
}

func TestArrivalsRespectClock(t *testing.T) {
	c := oneNodeCluster()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 6.4}
	wb.AddInputJob("early", "u", arch, 64, 0, 0)
	wb.AddInputJob("late", "u", arch, 64, 0, 500)
	w := wb.Build()
	var arrivals []float64
	ss := greedyStub()
	base := ss.onArrival
	ss.onArrival = func(s *Sim, j int) {
		arrivals = append(arrivals, s.Now())
		base(s, j)
	}
	s := New(c, w, nil, ss, Options{})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 || arrivals[0] != 0 || arrivals[1] != 500 {
		t.Errorf("arrivals = %v", arrivals)
	}
	if r.JobDone[1] < 500 {
		t.Error("late job finished before arriving")
	}
	if r.SumJobSec >= r.JobDone[0]+r.JobDone[1] {
		t.Error("SumJobSec must subtract arrival times")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		c := cluster.Paper20(0.25)
		wb := workload.NewBuilder()
		arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 30}
		for i := 0; i < 6; i++ {
			wb.AddInputJob("j", "u", arch, 10*64, cluster.StoreID(i%20), float64(i*10))
		}
		w := wb.Build()
		s := New(c, w, nil, greedyStub(), Options{})
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.TotalCost() != b.TotalCost() || a.Utilization != b.Utilization {
		t.Errorf("nondeterministic: makespan %g vs %g, cost %v vs %v, utilization %g vs %g",
			a.Makespan, b.Makespan, a.TotalCost(), b.TotalCost(), a.Utilization, b.Utilization)
	}
}
