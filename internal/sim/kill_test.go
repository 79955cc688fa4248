package sim

import (
	"math"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/workload"
)

func TestKillTaskRunningBillsPartialBurn(t *testing.T) {
	// Preempt task 0 halfway: 32 of its 64 ECU-sec are burned and billed,
	// and the task re-runs to completion.
	c := oneNodeCluster()
	w := twoTaskJob()
	ss := greedyStub()
	ss.init = func(s *Sim) {
		s.At(32.64, func() {
			if err := s.KillTask(0, 0); err != nil {
				t.Errorf("KillTask(running): %v", err)
			}
		})
	}
	s := New(c, w, nil, ss, Options{})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Launched t=0, transfer done 0.64, killed 32.64: burned 32 ECU-sec.
	if got := r.Cost.Category(cost.CatSpeculative); got != cost.CPUCost(cost.Millicents(1), 32) {
		t.Errorf("preemption burn = %v, want 32 mc", got)
	}
	// The re-run still bills its full demand.
	if got := r.Cost.Category(cost.CatCPU); got != cost.Millicents(128) {
		t.Errorf("cpu cost = %v, want 128 mc", got)
	}
	// Re-run from 32.64 on the freed slot: 32.64 + 0.64 + 64.
	if math.Abs(r.Makespan-97.28) > 1e-6 {
		t.Errorf("makespan = %g, want 97.28", r.Makespan)
	}
}

func TestKillTaskQueuedAndInvalidStates(t *testing.T) {
	c := oneNodeCluster()
	w := twoTaskJob()
	ss := &stubSched{}
	ss.onArrival = func(s *Sim, j int) {
		// Pending tasks cannot be killed.
		if err := s.KillTask(j, 0); err == nil {
			t.Error("KillTask accepted a Pending task")
		}
		if err := s.Enqueue(j, 0, 0, 0, s.Now()+1e6); err != nil {
			t.Fatal(err)
		}
		// Queued tasks dequeue back to Pending.
		if err := s.KillTask(j, 0); err != nil {
			t.Errorf("KillTask(queued): %v", err)
		}
		if got := len(s.PendingTasks(j)); got != 2 {
			t.Errorf("pending after queued kill = %d, want 2", got)
		}
		_ = s.Launch(j, 0, 0, 0)
		_ = s.Launch(j, 1, 0, 0)
	}
	ss.onTaskDone = func(s *Sim, j, task int) {
		if err := s.KillTask(j, task); err == nil {
			t.Error("KillTask accepted a Done task")
		}
	}
	if _, err := New(c, w, nil, ss, Options{}).Run(); err != nil {
		t.Fatal(err)
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
