package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"lips/internal/cluster"
	"lips/internal/workload"
)

// TestTablePages runs jobs laid across the task table's page boundaries:
// one ending exactly on a boundary, one larger than two pages, one of a
// single task, then more of each kind through AddJob mid-run. Every row
// must hold its own (job, idx), a row's address must survive the table's
// growth, and the incremental indexes must agree with a recount after
// each added job, during the run and at its end.
func TestTablePages(t *testing.T) {
	wb := workload.NewBuilder()
	for i, n := range []int{1, pageRows - 1, 2*pageRows + 452, pageRows, 7} {
		wb.AddNoInputJob(fmt.Sprintf("batch-%d", i), "u", n, 1, 0)
	}
	c := cluster.Random(rand.New(rand.NewSource(1)), cluster.RandomSpec{Nodes: 16})
	ss := greedyStub()
	s := New(c, wb.Build(), nil, ss, Options{})
	checkRows(t, s)
	first, last := s.task(0, 0), s.task(2, 2*pageRows+451)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.StepUntil(10); err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{pageRows - 4, 3*pageRows + 1, 1, pageRows} {
		if _, err := s.AddJob(workload.Job{Name: fmt.Sprintf("added-%d", i), User: "u", NumTasks: n, CPUSecPerTask: 1}, nil); err != nil {
			t.Fatal(err)
		}
		verifyIndexes(t, s, true)
	}
	checkRows(t, s)
	if s.task(0, 0) != first || s.task(2, 2*pageRows+451) != last {
		t.Error("a row moved when the table grew")
	}
	if total := int(s.taskBase[len(s.jobs)]); len(s.tasks) != (total+pageRows-1)/pageRows || len(s.states) != len(s.tasks) {
		t.Errorf("%d tasks on %d row pages and %d state pages", total, len(s.tasks), len(s.states))
	}
	done := 0
	ss.onTaskDone = func(s *Sim, _, _ int) {
		if done++; done%500 == 0 {
			verifyIndexes(t, s, true)
		}
	}
	for t0, ok := s.NextEventAt(); ok; t0, ok = s.NextEventAt() {
		if err := s.StepUntil(t0); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Drained() {
		t.Fatal("the run did not drain")
	}
	verifyIndexes(t, s, true)
	checkRows(t, s)
}

// checkRows requires every task's row to hold its own coordinates, and
// the flat index of (job, idx) to reach that same row.
func checkRows(t *testing.T, s *Sim) {
	t.Helper()
	for j := range s.jobs {
		for f := s.taskBase[j]; f < s.taskBase[j+1]; f++ {
			ti := s.row(f)
			if int(ti.job) != j || ti.idx != f-s.taskBase[j] {
				t.Fatalf("flat %d holds (job %d, idx %d), want (%d, %d)", f, ti.job, ti.idx, j, f-s.taskBase[j])
			}
			if s.task(int(ti.job), int(ti.idx)) != ti {
				t.Fatalf("task(%d, %d) is not the row at flat %d", ti.job, ti.idx, f)
			}
		}
	}
}

// TestAddJobBytes gates what AddJob allocates: the table pages it keeps
// and under 2 KB of per-job records a job (51 KB for these 64), nothing
// that grows with a job's tasks beyond its rows. A table that grew by
// append copied every row at each step: 53 MB allocated to keep 9.6 MB.
func TestAddJobBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := New(oneNodeCluster(), &workload.Workload{}, nil, &stubSched{}, Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	const jobs, tasks = 64, 1500
	names := make([]string, jobs)
	for i := range names {
		names[i] = fmt.Sprintf("job-%d", i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range names {
		if _, err := s.AddJob(workload.Job{Name: name, User: "u", NumTasks: tasks, CPUSecPerTask: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	page := uint64(unsafe.Sizeof([pageRows]taskInfo{}) + unsafe.Sizeof([pageRows]uint8{}))
	kept := uint64(len(s.tasks)) * page
	const perJob = 2 << 10
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > kept+jobs*perJob {
		t.Errorf("%d jobs of %d tasks allocated %d KB; the %d pages they keep are %d KB, budget %d KB more",
			jobs, tasks, allocated>>10, len(s.tasks), kept>>10, jobs*perJob>>10)
	}
	t.Logf("%d jobs of %d tasks: %d KB allocated, %d KB of pages kept", jobs, tasks, allocated>>10, kept>>10)
}
