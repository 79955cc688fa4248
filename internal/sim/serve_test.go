package sim

import (
	"math"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/trace"
	"lips/internal/workload"
)

// TestStepUntilMatchesRun pins the serve-mode contract: Start plus a
// StepUntil loop must reproduce Run exactly — same makespan, same bill.
func TestStepUntilMatchesRun(t *testing.T) {
	batch := New(oneNodeCluster(), twoTaskJob(), nil, greedyStub(), Options{})
	want, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}

	s := New(oneNodeCluster(), twoTaskJob(), nil, greedyStub(), Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 1; !s.Drained(); i++ {
		if err := s.StepUntil(float64(i) * 10); err != nil {
			t.Fatal(err)
		}
		if i > 100 {
			t.Fatal("run never drained")
		}
	}
	got := s.CurrentResult()
	if got.Makespan != want.Makespan {
		t.Errorf("makespan = %g, want %g", got.Makespan, want.Makespan)
	}
	if got.Cost.Total() != want.Cost.Total() {
		t.Errorf("cost = %v, want %v", got.Cost.Total(), want.Cost.Total())
	}
}

func TestStepUntilAdvancesIdleClock(t *testing.T) {
	s := New(oneNodeCluster(), &workload.Workload{}, nil, greedyStub(), Options{})
	if err := s.StepUntil(10); err == nil {
		t.Fatal("StepUntil before Start should fail")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
	if err := s.StepUntil(123); err != nil {
		t.Fatal(err)
	}
	// An empty run still ages: serve epochs tick with nothing queued.
	if s.Now() != 123 {
		t.Errorf("clock = %g, want 123", s.Now())
	}
}

// TestAddJobMidRun grows a live run: a job submitted at t=100 into an
// initially empty workload must arrive, run and complete.
func TestAddJobMidRun(t *testing.T) {
	s := New(oneNodeCluster(), &workload.Workload{}, nil, greedyStub(), Options{})
	if _, err := s.AddJob(workload.Job{Name: "early"}, nil); err == nil {
		t.Fatal("AddJob before Start should fail")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.StepUntil(100); err != nil {
		t.Fatal(err)
	}

	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	j, err := s.AddJob(
		workload.Job{Name: "mid", User: "u", Archetype: arch.Name, CPUSecPerMB: arch.CPUSecPerMB(), AccessFrac: 1},
		&hdfs.DataObject{Name: "mid", SizeMB: 128, Origin: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.W.Jobs[j].NumTasks; n != 2 {
		t.Fatalf("128 MB input → %d tasks, want 2", n)
	}
	for i := 1; !s.Drained() && i <= 100; i++ {
		if err := s.StepUntil(100 + float64(i)*10); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Drained() {
		t.Fatal("added job never completed")
	}
	if done := s.JobDoneAt(j); done <= 100 {
		t.Errorf("doneAt = %g, want > 100 (arrival was clamped to the clock)", done)
	}
	_, _, _, done := s.JobStateCounts(j)
	if done != 2 {
		t.Errorf("done tasks = %d, want 2", done)
	}
	// Same work as TestSingleJobExactAccounting, just submitted late.
	if got := s.CurrentResult().Cost.Category(cost.CatCPU); got != cost.Millicents(128) {
		t.Errorf("cpu cost = %v, want 128 mc", got.ToMillicents())
	}
}

func TestAddJobValidation(t *testing.T) {
	s := New(oneNodeCluster(), &workload.Workload{}, nil, greedyStub(), Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		job  workload.Job
		obj  *hdfs.DataObject
	}{
		{"zero-size input", workload.Job{Name: "a"}, &hdfs.DataObject{SizeMB: 0, Origin: 0}},
		{"bad origin", workload.Job{Name: "b"}, &hdfs.DataObject{SizeMB: 64, Origin: 99}},
		{"no tasks", workload.Job{Name: "c"}, nil},
		{"no cpu", workload.Job{Name: "d", NumTasks: 4}, nil},
		{"bad access frac", workload.Job{Name: "e", AccessFrac: 1.5}, &hdfs.DataObject{SizeMB: 64, Origin: 0}},
	}
	for _, tc := range cases {
		if _, err := s.AddJob(tc.job, tc.obj); err == nil {
			t.Errorf("%s: AddJob accepted", tc.name)
		}
	}
	if s.NumJobs() != 0 || !s.Drained() || len(s.W.Objects) != 0 || len(s.P.Objects()) != 0 {
		t.Errorf("rejected AddJobs left state behind: %d jobs, %d workload objects, %d placed objects",
			s.NumJobs(), len(s.W.Objects), len(s.P.Objects()))
	}
}

// TestTaskTableOverflow holds the flat task table's int32 offsets: a job
// that would take the table past math.MaxInt32 tasks is refused before it
// touches anything, and a batch workload already past it cannot start.
func TestTaskTableOverflow(t *testing.T) {
	s := New(oneNodeCluster(), twoTaskJob(), nil, greedyStub(), Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Pretend the table is three tasks short of full.
	s.taskBase[len(s.taskBase)-1] = math.MaxInt32 - 3
	jobs, objects, tasks := len(s.W.Jobs), len(s.W.Objects), len(s.tasks)
	for _, tc := range []struct {
		name string
		job  workload.Job
		obj  *hdfs.DataObject
	}{
		{"no input", workload.Job{Name: "n", NumTasks: 4, CPUSecPerTask: 1}, nil},
		{"input", workload.Job{Name: "i", AccessFrac: 1}, &hdfs.DataObject{SizeMB: 4 * 64, Origin: 0}},
	} {
		if _, err := s.AddJob(tc.job, tc.obj); err == nil {
			t.Errorf("%s: a 4-task job past the table's end was accepted", tc.name)
		}
		if len(s.W.Jobs) != jobs || len(s.W.Objects) != objects || len(s.tasks) != tasks {
			t.Errorf("%s: refused job left state behind: %d jobs, %d objects, %d tasks",
				tc.name, len(s.W.Jobs), len(s.W.Objects), len(s.tasks))
		}
	}

	big := &workload.Workload{Jobs: []workload.Job{
		{Name: "a", NumTasks: math.MaxInt32, CPUSecPerTask: 1, Object: workload.NoObject},
		{Name: "b", NumTasks: 1, CPUSecPerTask: 1, Object: workload.NoObject},
	}}
	if err := New(oneNodeCluster(), big, nil, greedyStub(), Options{}).Start(); err == nil {
		t.Error("a workload of MaxInt32+1 tasks started")
	}
}

// TestCancelJobMidRun kills a job with running attempts: the partial burn
// is billed like a preempted speculative attempt, every task retires, and
// the run drains without the job's remaining work.
func TestCancelJobMidRun(t *testing.T) {
	s := New(oneNodeCluster(), twoTaskJob(), nil, greedyStub(), Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.StepUntil(10); err != nil {
		t.Fatal(err)
	}
	if _, _, running, _ := s.JobStateCounts(0); running != 2 {
		t.Fatalf("want both tasks running at t=10, got %d", running)
	}
	if err := s.CancelJob(0); err != nil {
		t.Fatal(err)
	}
	if !s.JobCancelled(0) || !s.Drained() {
		t.Fatal("cancel did not retire the job")
	}
	if _, _, _, done := s.JobStateCounts(0); done != 2 {
		t.Errorf("tasks not retired: done = %d", done)
	}
	if s.JobDoneAt(0) != 10 {
		t.Errorf("doneAt = %g, want 10", s.JobDoneAt(0))
	}
	r := s.CurrentResult()
	// Each attempt ran ~9.36 ECU-sec of its 64 before dying (launched
	// after the 0.64 s transfer); the burn lands on the speculative/kill
	// category, not CPU.
	if got := r.Cost.Category(cost.CatSpeculative); got <= 0 {
		t.Errorf("cancelled burn billed %v, want > 0", got)
	}
	if got := r.Cost.Category(cost.CatCPU); got != 0 {
		t.Errorf("cpu cost = %v, want 0 (nothing completed)", got)
	}
	// Idempotent, and a second cancel adds no new charges.
	before := r.Cost.Total()
	if err := s.CancelJob(0); err != nil {
		t.Fatal(err)
	}
	if after := s.CurrentResult().Cost.Total(); after != before {
		t.Errorf("second cancel changed the bill: %v -> %v", before, after)
	}
	if err := s.CancelJob(99); err == nil {
		t.Error("out-of-range cancel accepted")
	}
}

// TestCancelReleasesDependents: cancelling a prerequisite unblocks its
// dependents exactly like completion would.
func TestCancelReleasesDependents(t *testing.T) {
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	wb.AddInputJob("parent", "u", arch, 128, 0, 0)
	wb.AddInputJob("child", "u", arch, 64, 0, 0)
	w := wb.Build()
	s := New(oneNodeCluster(), w, nil, greedyStub(), Options{Deps: [][]int{1: {0}}})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.StepUntil(5); err != nil {
		t.Fatal(err)
	}
	if s.JobArrived(1) {
		t.Fatal("dependent arrived before its prerequisite finished")
	}
	if err := s.CancelJob(0); err != nil {
		t.Fatal(err)
	}
	for i := 1; !s.Drained() && i <= 100; i++ {
		if err := s.StepUntil(5 + float64(i)*10); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Drained() {
		t.Fatal("dependent never completed after the prerequisite's cancel")
	}
	if s.JobCancelled(1) || s.JobDoneAt(1) <= 5 {
		t.Errorf("dependent: cancelled=%v doneAt=%g", s.JobCancelled(1), s.JobDoneAt(1))
	}
}

// TestInjectFaultMidRun delivers node churn into a live run; past firing
// times clamp to the clock instead of corrupting the heap.
func TestInjectFaultMidRun(t *testing.T) {
	b := cluster.NewBuilder("za")
	b.AddNode("za", "t", 2, 2, cost.Millicents(1), 1e6)
	b.AddNode("za", "t", 2, 2, cost.Millicents(1), 1e6)
	s := New(b.Build(), twoTaskJob(), nil, greedyStub(), Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.StepUntil(10); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(Fault{At: 3, Kind: FaultNodeDown, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.StepUntil(11); err != nil {
		t.Fatal(err)
	}
	if s.NodeAlive(1) {
		t.Fatal("node 1 still alive after clamped fault")
	}
	if err := s.InjectFault(Fault{At: s.Now(), Kind: FaultNodeUp, Node: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 1; !s.Drained() && i <= 200; i++ {
		if err := s.StepUntil(11 + float64(i)*10); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Drained() || !s.NodeAlive(1) {
		t.Fatalf("drained=%v alive=%v after recovery", s.Drained(), s.NodeAlive(1))
	}
	if err := s.InjectFault(Fault{At: s.Now(), Kind: FaultNodeDown, Node: 99}); err == nil {
		t.Error("fault on a nonexistent node accepted")
	}
}

// TestSnapshotChainRevivesAfterDrain: the snapshot chain dies when the
// run drains, and a job added afterwards must re-arm it, or a daemon's
// gauges and samples would freeze at the last idle tick. Untraced, the
// chain refreshes the gauges alone; traced, each tick is a sample event.
func TestSnapshotChainRevivesAfterDrain(t *testing.T) {
	for _, traced := range []bool{false, true} {
		reg := obs.NewRegistry()
		buf := &eventBuf{}
		opts := Options{Metrics: reg, MetricsSampleSec: 10}
		if traced {
			opts.Tracer, opts.SampleIntervalSec = buf, 10
		}
		s := New(oneNodeCluster(), &workload.Workload{}, nil, greedyStub(), opts)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		snapshots := func() (clock, lastSample float64) {
			clock, _ = reg.Value(obs.MSimClockSeconds)
			lastSample = -1
			for _, e := range buf.events {
				if e.Kind == trace.KindSample {
					lastSample = e.T
				}
			}
			return clock, lastSample
		}
		// Nothing to run: the chain ticks at 0 and 10, then dies.
		if err := s.StepUntil(100); err != nil {
			t.Fatal(err)
		}
		clock, sample := snapshots()
		if clock != 10 || traced && sample != 10 {
			t.Fatalf("traced=%v: idle run's last snapshot at clock %g, sample %g; want 10", traced, clock, sample)
		}
		if _, err := s.AddJob(workload.Job{Name: "late", User: "u", NumTasks: 1, CPUSecPerTask: 5}, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.StepUntil(115); err != nil {
			t.Fatal(err)
		}
		clock, sample = snapshots()
		if clock != 110 {
			t.Errorf("traced=%v: clock gauge %g after the revival, want 110", traced, clock)
		}
		if traced && sample != 110 {
			t.Errorf("last sample at %g after the revival, want 110", sample)
		}
	}
}

// TestAddJobKeepsDeterminism: interleaving StepUntil boundaries must not
// change the outcome — the same submissions at the same sim times yield
// bit-identical results regardless of how the wall loop slices time.
func TestAddJobKeepsDeterminism(t *testing.T) {
	run := func(stride float64) *Result {
		s := New(oneNodeCluster(), &workload.Workload{}, nil, greedyStub(), Options{})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
		if err := s.StepUntil(50); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddJob(
			workload.Job{Name: "a", User: "u", Archetype: arch.Name, CPUSecPerMB: arch.CPUSecPerMB(), AccessFrac: 1},
			&hdfs.DataObject{Name: "a", SizeMB: 128, Origin: 0},
		); err != nil {
			t.Fatal(err)
		}
		for i := 1; !s.Drained() && i <= 10000; i++ {
			if err := s.StepUntil(50 + float64(i)*stride); err != nil {
				t.Fatal(err)
			}
		}
		return s.CurrentResult()
	}
	a, b := run(1), run(97)
	if math.Abs(a.Makespan-b.Makespan) != 0 || a.Cost.Total() != b.Cost.Total() {
		t.Errorf("step stride changed the run: %g/%v vs %g/%v",
			a.Makespan, a.Cost.Total(), b.Makespan, b.Cost.Total())
	}
}

// TestJobSpanMatchesAccessors is the differential gate for the span
// surface: every JobSpan milestone must equal what it is a summary of —
// the job's first enqueue and first launch trace events (a direct launch
// with no queue stop counts as the pin), JobDoneAt and the ledger's
// per-job key — the batch frame must report submitted == admitted ==
// arrival, and the phase durations must telescope to the end-to-end
// latency. One scheduler launches directly, the other pins each task to
// the node's queue five seconds ahead.
func TestJobSpanMatchesAccessors(t *testing.T) {
	queueing := &stubSched{name: "queue-stub"}
	queueing.onArrival = func(s *Sim, j int) {
		for _, task := range s.PendingTasks(j) {
			if err := s.Enqueue(j, task, 0, 0, s.Now()+5); err != nil {
				t.Error(err)
			}
		}
	}
	for _, sch := range []*stubSched{greedyStub(), queueing} {
		buf := &eventBuf{}
		s := New(oneNodeCluster(), &workload.Workload{}, nil, sch, Options{Tracer: buf})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if err := s.StepUntil(50); err != nil {
			t.Fatal(err)
		}
		arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
		j, err := s.AddJob(
			workload.Job{Name: "sp", User: "tenant-a", Archetype: arch.Name, CPUSecPerMB: arch.CPUSecPerMB(), AccessFrac: 1},
			&hdfs.DataObject{Name: "sp", SizeMB: 128, Origin: 0},
		)
		if err != nil {
			t.Fatal(err)
		}

		// Mid-run, before anything finishes: terminal fields must be unset.
		early := s.JobSpan(j)
		if early.Outcome != "" || early.DoneSim != -1 || early.E2ESim() != -1 {
			t.Errorf("%s: in-flight span has terminal state: %+v", sch.name, early)
		}
		if early.SubmittedSim != s.W.Jobs[j].ArrivalSec || early.AdmittedSim != early.SubmittedSim {
			t.Errorf("%s: batch frame: submitted %g admitted %g, want both %g",
				sch.name, early.SubmittedSim, early.AdmittedSim, s.W.Jobs[j].ArrivalSec)
		}

		for i := 1; !s.Drained() && i <= 1000; i++ {
			if err := s.StepUntil(50 + float64(i)*10); err != nil {
				t.Fatal(err)
			}
		}
		if !s.Drained() {
			t.Fatalf("%s: never drained", sch.name)
		}

		first := map[trace.Kind]float64{}
		for _, e := range buf.events {
			if _, seen := first[e.Kind]; !seen && e.Task != nil && e.Task.Job == j {
				first[e.Kind] = e.T
			}
		}
		launch, launched := first[trace.KindLaunch]
		planned, enqueued := first[trace.KindEnqueue]
		if !enqueued {
			planned = launch
		}
		sp := s.JobSpan(j)
		if sp.Outcome != "done" || sp.Job != j || sp.Name != "sp" || sp.Tenant != "tenant-a" {
			t.Fatalf("%s: span identity: %+v", sch.name, sp)
		}
		if enqueued != (sch == queueing) || sp.PlannedSim != planned {
			t.Errorf("%s: planned %g, first pin in the trace %g (enqueue event: %v)", sch.name, sp.PlannedSim, planned, enqueued)
		}
		if !launched || sp.FirstLaunchSim != launch || launch < planned {
			t.Errorf("%s: first launch %g, first launch event %g (seen=%v), planned %g",
				sch.name, sp.FirstLaunchSim, launch, launched, planned)
		}
		if sp.DoneSim != s.JobDoneAt(j) {
			t.Errorf("%s: done %g, JobDoneAt %g", sch.name, sp.DoneSim, s.JobDoneAt(j))
		}
		if sp.CostUC != int64(s.Ledger.Job("sp")) || sp.CostUC <= 0 {
			t.Errorf("%s: cost %d µc, ledger %d", sch.name, sp.CostUC, int64(s.Ledger.Job("sp")))
		}
		var sum float64
		for _, ph := range sp.Phases() {
			sum += ph.DurSim
		}
		if e2e := sp.E2ESim(); math.Abs(sum-e2e) > 1e-9 || e2e <= 0 {
			t.Errorf("%s: phases sum %g, e2e %g", sch.name, sum, e2e)
		}
	}
}

// TestJobSpanCancelled: a cancelled job's span carries the cancelled
// outcome and its done milestone equals JobDoneAt.
func TestJobSpanCancelled(t *testing.T) {
	s := New(oneNodeCluster(), twoTaskJob(), nil, greedyStub(), Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.StepUntil(10); err != nil {
		t.Fatal(err)
	}
	if err := s.CancelJob(0); err != nil {
		t.Fatal(err)
	}
	for i := 1; !s.Drained() && i <= 100; i++ {
		if err := s.StepUntil(10 + float64(i)*10); err != nil {
			t.Fatal(err)
		}
	}
	sp := s.JobSpan(0)
	if sp.Outcome != "cancelled" || sp.DoneSim != s.JobDoneAt(0) || sp.DoneSim < 0 {
		t.Errorf("cancelled span: %+v (doneAt %g)", sp, s.JobDoneAt(0))
	}
}
