package sim

import (
	"math"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/obs"
	"lips/internal/workload"
)

// twoZoneCluster: one node per zone, data lives in za.
func twoZoneCluster() *cluster.Cluster {
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "t", 4, 4, cost.Millicents(1), 1e6)
	b.AddNode("zb", "t", 4, 4, cost.Millicents(1), 1e6)
	return b.Build()
}

func TestSharedLinksHalveConcurrentTransfers(t *testing.T) {
	// Two cross-zone reads at once: dedicated model gives each the full
	// 31.25 MB/s; shared model halves it, roughly doubling transfer time.
	build := func() (*cluster.Cluster, *workload.Workload) {
		c := twoZoneCluster()
		wb := workload.NewBuilder()
		arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 0.064}
		wb.AddInputJob("j1", "u", arch, 64, 0, 0)
		wb.AddInputJob("j2", "u", arch, 64, 0, 0)
		return c, wb.Build()
	}
	pin := func() *stubSched {
		ss := &stubSched{}
		ss.onArrival = func(s *Sim, j int) {
			// Both tasks read cross-zone on node 1.
			if err := s.Launch(j, 0, 1, 0); err != nil {
				t.Error(err)
			}
		}
		return ss
	}
	c, w := build()
	ded, err := New(c, w, nil, pin(), Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	c, w = build()
	shared, err := New(c, w, nil, pin(), Options{SharedLinks: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Dedicated: 64/31.25 = 2.048 s transfer + 0.064 ECU-s at 1 ECU/slot.
	if math.Abs(ded.Makespan-(2.048+0.064)) > 1e-6 {
		t.Errorf("dedicated makespan = %g", ded.Makespan)
	}
	// Shared: both flows at 15.625 MB/s finish together at 4.096 s.
	if math.Abs(shared.Makespan-(4.096+0.064)) > 1e-6 {
		t.Errorf("shared makespan = %g, want ~4.16", shared.Makespan)
	}
	// Dollar cost identical — contention costs time, not money.
	if ded.TotalCost() != shared.TotalCost() {
		t.Errorf("costs differ: %v vs %v", ded.TotalCost(), shared.TotalCost())
	}
}

func TestSharedLinksProcessorSharingDynamics(t *testing.T) {
	// A short flow joins a long one mid-way: the long flow slows down
	// while sharing and speeds back up after — classic processor sharing.
	// Drive the flow engine directly on an empty workload.
	c := twoZoneCluster()
	s := New(c, workload.NewBuilder().Build(), nil, &stubSched{}, Options{SharedLinks: true})
	var longDone, shortDone float64
	s.net.start("za", "zb", 62.5, func() { longDone = s.Now() })
	s.At(1, func() {
		s.net.start("za", "zb", 31.25, func() { shortDone = s.Now() })
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Long alone for 1 s (31.25 MB done), then shares: both at 15.625
	// MB/s. Short needs 2 s shared → done at t=3. Long has 31.25 MB
	// left at t=1, transfers 31.25 over the shared 2 s, done at t=3 too.
	if math.Abs(shortDone-3) > 1e-9 {
		t.Errorf("short done at %g, want 3", shortDone)
	}
	if math.Abs(longDone-3) > 1e-9 {
		t.Errorf("long done at %g, want 3", longDone)
	}
}

func TestSharedLinksCancelRestoresBandwidth(t *testing.T) {
	c := twoZoneCluster()
	s := New(c, workload.NewBuilder().Build(), nil, &stubSched{}, Options{SharedLinks: true})
	var aDone float64
	fa := s.net.start("za", "zb", 62.5, func() { aDone = s.Now() })
	fb := s.net.start("za", "zb", 62.5, func() {})
	_ = fa
	s.At(1, func() {
		moved := s.net.cancel(fb)
		// 1 s at half rate: 15.625 MB moved.
		if math.Abs(moved-15.625) > 1e-9 {
			t.Errorf("cancelled flow moved %g, want 15.625", moved)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Flow a: 1 s shared (15.625 MB) + (62.5−15.625)/31.25 = 1.5 s alone.
	if math.Abs(aDone-2.5) > 1e-9 {
		t.Errorf("flow a done at %g, want 2.5", aDone)
	}
	if s.net.activeFlows("za", "zb") != 0 {
		t.Error("flows leaked")
	}
}

func TestSharedLinksTimeoutCancelsFlow(t *testing.T) {
	// Starved cross-zone link under sharing: the task times out, the
	// flow is cancelled, the partial bytes are billed, and the retry
	// eventually succeeds with the timeout waived.
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "t", 1, 1, cost.Millicents(1), 1e6)
	b.AddNode("zb", "t", 1, 1, cost.Millicents(1), 1e6)
	bw := cluster.DefaultBandwidths()
	bw.InterZoneMBps = 0.02
	b.SetBandwidths(bw)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 1}
	wb.AddInputJob("j", "u", arch, 64, 0, 0)
	w := wb.Build()
	ss := &stubSched{}
	ss.onSlotFree = func(s *Sim, n cluster.NodeID) {
		if n != 1 {
			return
		}
		for _, j := range s.ArrivedJobs() {
			for _, task := range s.PendingTasks(j) {
				_ = s.Launch(j, task, 1, 0)
			}
		}
	}
	ss.onArrival = func(s *Sim, _ int) { s.KickIdleNodes() }
	reg := obs.NewRegistry()
	r, err := New(c, w, nil, ss, Options{SharedLinks: true, maxAttempts: 1, Metrics: reg}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// One timeout window (600 s) wasted, then the full 3200 s transfer.
	if r.Makespan < 3200 {
		t.Errorf("makespan = %g", r.Makespan)
	}
	// One timeout kill billing the flow's partial read (600 s × 0.02 MB/s
	// = 12 MB), then the full 64 MB block.
	if kills, _ := reg.Value(obs.MSimKilled, "timeout"); kills != 1 {
		t.Errorf("timeout kills = %g, want 1", kills)
	}
	perGB := c.MSPerGB(1, 0)
	want := perGB.MulFloat(12.0/1024) + perGB.MulFloat(64.0/1024)
	if got := r.Cost.Category(cost.CatTransfer); got != want {
		t.Errorf("transfer = %d µc, want %d (a 12 MB partial read and the 64 MB block)", int64(got), int64(want))
	}
}

// TestStoreLossKillsSharedCopy: a primary and its speculative copy read
// one block over the same shared zone link, so each read takes 4.096 s
// against a 2.048 s dedicated-rate estimate. The store is lost 2.5 s in:
// both reads are unfinished, so both attempts die with the store.
func TestStoreLossKillsSharedCopy(t *testing.T) {
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "t", 1, 1, cost.Millicents(1), 1e6)
	b.AddNode("zb", "t", 1, 1, cost.Millicents(1), 1e6)
	b.AddNode("zb", "t", 1, 1, cost.Millicents(1), 1e6)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 32}
	wb.AddInputJob("j", "u", arch, 64, 0, 0) // one block on store 0, in za
	w := wb.Build()
	g := greedyStub()
	g.onArrival = func(s *Sim, j int) {
		if err := s.Launch(j, 0, 1, 0); err != nil {
			t.Error(err)
		}
		if !s.LaunchSpeculative(2) {
			t.Error("speculative launch refused")
		}
	}
	reg := obs.NewRegistry()
	plan := &FaultPlan{Faults: []Fault{{At: 2.5, Kind: FaultStoreLoss, Store: 0}}}
	s := New(c, w, nil, g, Options{SharedLinks: true, Speculative: true, Faults: plan, Metrics: reg})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got, _ := reg.Value(obs.MSimKilled, "store-loss"); got != 2 {
		t.Errorf("store-loss kills = %g, want 2 (the primary and its copy)", got)
	}
	verifyIndexes(t, s, true)
}

func TestSharedLinksLocalReadsDoNotContend(t *testing.T) {
	// Node-local reads bypass the shared engine entirely.
	c := twoZoneCluster()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 0.064}
	wb.AddInputJob("l1", "u", arch, 64, 0, 0)
	wb.AddInputJob("l2", "u", arch, 64, 0, 0)
	w := wb.Build()
	ss := &stubSched{}
	ss.onArrival = func(s *Sim, j int) {
		_ = s.Launch(j, 0, 0, 0) // node 0 co-located with store 0
	}
	s := New(c, w, nil, ss, Options{SharedLinks: true})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Both at local 100 MB/s in parallel slots: 0.64 + 0.064.
	if math.Abs(r.Makespan-(0.64+0.064)) > 1e-6 {
		t.Errorf("makespan = %g", r.Makespan)
	}
}
