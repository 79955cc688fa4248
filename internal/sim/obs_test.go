package sim

import (
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/obs"
	"lips/internal/workload"
)

// TestNoObsNoAllocs pins the disabled-path contract: with Options.Tracer
// and Options.Metrics unset (a nil tracer is the one way tracing is off),
// every lifecycle chokepoint is two nil checks and allocates nothing.
func TestNoObsNoAllocs(t *testing.T) {
	s := New(oneNodeCluster(), twoTaskJob(), nil, greedyStub(), Options{})
	if s.om != nil || s.Tracer() != nil {
		t.Fatal("om or tracer set without Options.Metrics or Options.Tracer")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.noteRun()
		s.noteEnqueue(0, 0, 0, 0, 0)
		s.noteLaunch(0, 0, 1, 0, 0, NodeLocal, false)
		s.noteDone(0, 0, 1, 0, 0, 1, 0, 1, 0, 0, false)
		s.noteKill(0, 0, 0, "timeout", 0, false)
		s.noteMove(0, 0, 0, 0, 64, 1, 0, "plan")
		s.noteFault(Fault{Kind: FaultNodeDown})
		s.emitSample()
		s.charge(cost.CatCPU, 0, 0)
		s.obsRefresh()
	})
	if allocs != 0 {
		t.Errorf("disabled obs path allocates %.1f objects per call, want 0", allocs)
	}
}

// TestMetricsNoAllocs is TestNoObsNoAllocs with Options.Metrics set:
// every chokepoint calls its obs.SimMetrics observer through handles
// resolved at registration, and a charge's tenant counter is resolved on
// its first charge (AllocsPerRun's warm-up call), so none allocates.
func TestMetricsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	s := New(oneNodeCluster(), twoTaskJob(), nil, greedyStub(), Options{Metrics: obs.NewRegistry()})
	if s.om == nil {
		t.Fatal("om unset with Options.Metrics")
	}
	type chokepoint struct {
		name string
		f    func()
	}
	cps := []chokepoint{
		{"noteEnqueue", func() { s.noteEnqueue(0, 0, 0, 0, 0) }},
		{"noteLaunch", func() { s.noteLaunch(0, 0, 1, 0, 0, NodeLocal, false) }},
		{"noteDone", func() { s.noteDone(0, 0, 1, 0, 0, 1, 0, 1, 0, 0, false) }},
		{"noteFault", func() { s.noteFault(Fault{Kind: FaultNodeDown}) }},
		{"charge", func() { s.charge(cost.CatCPU, 0, 1) }},
		{"obsRefresh", s.obsRefresh},
	}
	for _, r := range obs.KillReasons {
		cps = append(cps, chokepoint{"noteKill " + r, func() { s.noteKill(0, 0, 0, r, 1, false) }})
	}
	for _, r := range obs.MoveReasons {
		cps = append(cps, chokepoint{"noteMove " + r, func() { s.noteMove(0, 0, 0, 0, 64, 1, 1, r) }})
	}
	for _, cp := range cps {
		if allocs := testing.AllocsPerRun(100, cp.f); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call with metrics on, want 0", cp.name, allocs)
		}
	}
}

// TestLiveMetricsMatchRun runs a workload with a live registry and checks
// the scraped values against the run's own result: lifecycle counters and
// cost counters are exact, final gauges land on the end-of-run state.
func TestLiveMetricsMatchRun(t *testing.T) {
	reg := obs.NewRegistry()
	c := oneNodeCluster()
	w := twoTaskJob()
	r, err := New(c, w, nil, greedyStub(), Options{Metrics: reg, MetricsSampleSec: 10}).Run()
	if err != nil {
		t.Fatal(err)
	}

	val := func(name string, label ...string) float64 {
		t.Helper()
		v, ok := reg.Value(name, label...)
		if !ok {
			t.Fatalf("metric %s %v not registered", name, label)
		}
		return v
	}

	if got := val(obs.MSimDone); got != float64(w.TotalTasks()) {
		t.Errorf("done counter = %g, want %d", got, w.TotalTasks())
	}
	// The greedy stub launches directly without pinning to node queues,
	// so the enqueue counter stays zero (it counts Enqueue calls, the
	// LiPS path).
	if got := val(obs.MSimEnqueued); got != 0 {
		t.Errorf("enqueued counter = %g, want 0", got)
	}
	for cat, label := range map[cost.Category]string{
		cost.CatCPU: "cpu", cost.CatTransfer: "transfer", cost.CatPlacement: "placement",
		cost.CatSpeculative: "speculative", cost.CatFault: "fault",
	} {
		want := float64(r.Cost.Category(cat))
		if got := val(obs.MSimCost, label); got != want {
			t.Errorf("cost[%s] = %g, want %g (ledger)", label, got, want)
		}
	}
	if got, want := reg.Sum(obs.MSimCost), float64(r.Cost.Total()); got != want {
		t.Errorf("cost sum = %g, want %g", got, want)
	}
	for loc, label := range map[Locality]string{
		NodeLocal: "node-local", ZoneLocal: "zone-local",
		Remote: "remote", NoInput: "no-input",
	} {
		if got := val(obs.MSimLaunched, label); got != float64(r.Locality.Count(loc)) {
			t.Errorf("launched[%s] = %g, want %d", label, got, r.Locality.Count(loc))
		}
	}

	// The gauge refresh chain stops with the last completion, so the
	// final snapshot shows every task done and all slots free.
	if got := val(obs.MSimTasks, "done"); got != float64(w.TotalTasks()) {
		t.Errorf("tasks{done} gauge = %g, want %d", got, w.TotalTasks())
	}
	if got := val(obs.MSimFreeSlots); got != float64(c.Nodes[0].Slots) {
		t.Errorf("free slots gauge = %g, want %d", got, c.Nodes[0].Slots)
	}
	// Both tasks ran to completion, so slot-seconds accumulated.
	if got := val(obs.MSimBusySlotSeconds); got <= 0 {
		t.Errorf("busy slot gauge = %g, want > 0", got)
	}
	// The last refresh tick fires within one interval after the final
	// completion, so the clock gauge lands in [makespan, makespan+10].
	if got := val(obs.MSimClockSeconds); got < r.Makespan || got > r.Makespan+10 {
		t.Errorf("clock gauge = %g, want within [%g, %g]", got, r.Makespan, r.Makespan+10)
	}

	// /progress reads the same registry.
	p := obs.Snapshot(reg)
	if p.Done != int64(w.TotalTasks()) || p.TotalUC != int64(r.Cost.Total()) {
		t.Errorf("progress = %+v", p)
	}
}

// TestAttemptNoAllocs is the attempt path's count gate: with metrics off
// and on, a steady-state attempt — a launch reading its block across
// zones, its completion event and the CPU and transfer charges it books
// through its job's resolved lines — allocates nothing. The warm-up call
// creates the tenant's metric children.
func TestAttemptNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	for _, metrics := range []bool{false, true} {
		b := cluster.NewBuilder("za", "zb")
		b.AddNode("za", "t", 2, 2, cost.Millicents(1), 1e6)
		b.AddNode("zb", "t", 2, 2, cost.Millicents(1), 1e6)
		c := b.Build()
		wb := workload.NewBuilder()
		arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
		wb.AddInputJob("j", "u", arch, 64*200, 1, 0) // 200 blocks on store 1
		opts := Options{}
		if metrics {
			opts.Metrics = obs.NewRegistry()
		}
		s := New(c, wb.Build(), nil, &stubSched{}, opts)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if err := s.StepUntil(0); err != nil {
			t.Fatal(err)
		}
		task := 0
		attempt := func() {
			if err := s.Launch(0, task, 0, 1); err != nil {
				t.Fatal(err)
			}
			done := s.task(0, task).doneAt
			task++
			if err := s.StepUntil(done); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, attempt); allocs != 0 {
			t.Errorf("metrics %v: an attempt allocates %.1f objects, want 0", metrics, allocs)
		}
		if s.Ledger.Category(cost.CatTransfer) == 0 || s.JobRemaining(0) != 200-task {
			t.Errorf("metrics %v: %d attempts left %d tasks and %v transfer: the attempts did not run as set up",
				metrics, task, s.JobRemaining(0), s.Ledger.Category(cost.CatTransfer))
		}
	}
}
