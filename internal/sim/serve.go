package sim

// Serve-mode support: a batch Run owns the event loop from start to
// finish, but a long-running scheduling daemon (internal/serve) needs the
// opposite contract — the caller owns the loop, jobs arrive while it
// runs, and the simulation never "finishes". Start performs Run's prelude
// without entering the loop; StepUntil drains the heap up to a target
// time; AddJob, CancelJob and InjectFault mutate the live run. Run is
// Start, StepUntil to each NextEventAt until the heap drains, and Finish.
//
// None of these methods are goroutine-safe: the simulator remains
// single-threaded and the daemon serializes access around it.

import (
	"fmt"

	"lips/internal/cluster"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/trace"
	"lips/internal/workload"
)

// Start performs the run prelude — fault-plan scheduling, trace/metrics
// chains, scheduler Init, dependency wiring and job-arrival events —
// without executing any event. After Start, drive the clock with
// StepUntil (Run does this internally for batch runs).
func (s *Sim) Start() error {
	if s.started {
		return fmt.Errorf("sim: Start called twice")
	}
	if s.tableErr != nil {
		return s.tableErr
	}
	if s.opts.Faults != nil {
		if err := s.opts.Faults.validate(s.C); err != nil {
			return err
		}
		for _, f := range s.opts.Faults.Faults {
			f := f
			s.At(f.At, func() { s.inject(f) })
		}
	}
	s.noteRun()
	// One chain serves both snapshot consumers: a trace sample, which
	// sets the gauges too, when sampling is on; a gauge refresh alone
	// when only metrics are.
	switch {
	case s.tr != nil && s.opts.SampleIntervalSec > 0:
		s.snapEvery, s.snapSample = s.opts.SampleIntervalSec, true
	case s.om != nil:
		s.snapEvery = s.opts.MetricsSampleSec
	}
	if s.snapEvery > 0 {
		s.snapshot()
		s.schedule(s.clock+s.snapEvery, evSnapshot, 0, 0, 0, 0)
		s.snapLive = true
	}
	s.sched.Init(s)
	for j, deps := range s.opts.Deps {
		if j >= len(s.jobs) {
			return fmt.Errorf("sim: Deps refers to job %d of %d", j, len(s.jobs))
		}
		for _, d := range deps {
			if d < 0 || d >= len(s.jobs) {
				return fmt.Errorf("sim: job %d depends on out-of-range job %d", j, d)
			}
			s.jobs[j].waitingOn++
			s.jobs[d].dependents = append(s.jobs[d].dependents, j)
		}
	}
	for j := range s.W.Jobs {
		if s.jobs[j].waitingOn > 0 {
			continue // gated on dependencies
		}
		s.schedule(s.W.Jobs[j].ArrivalSec, evArrive, int32(j), 0, 0, 0)
	}
	s.started = true
	return nil
}

// StepUntil executes every event scheduled at or before t, then advances
// the clock to t (time moves even when nothing happens — a serve epoch
// with an empty queue still ages the cluster). It returns the event-
// budget error of a runaway step; the heap and all state remain valid
// afterwards, so a daemon can surface the error and keep serving.
func (s *Sim) StepUntil(t float64) error {
	if !s.started {
		return fmt.Errorf("sim: StepUntil before Start")
	}
	for len(s.events) > 0 && s.events[0].at <= t {
		s.nevent++
		if s.nevent > s.opts.MaxEvents {
			return fmt.Errorf("sim: aborted after %d events at t=%.1f (%d jobs incomplete)", s.nevent, s.clock, s.remaining)
		}
		ev := s.pop()
		s.clock = ev.at
		s.exec(&ev)
	}
	if t > s.clock {
		s.clock = t
	}
	return nil
}

// NextEventAt returns the time of the earliest scheduled event, and false
// once none is left: StepUntil to each such time replays Run's event loop.
func (s *Sim) NextEventAt() (float64, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// Drained reports whether every submitted job has completed (or been
// cancelled) — the daemon's quiesce condition at shutdown.
func (s *Sim) Drained() bool { return s.remaining == 0 }

// NumJobs returns how many jobs the run has ever carried, including
// completed and cancelled ones.
func (s *Sim) NumJobs() int { return len(s.jobs) }

// JobDoneAt returns the completion time of a finished (or cancelled)
// job, 0 while it is still in flight.
func (s *Sim) JobDoneAt(job int) float64 { return s.jobs[job].doneAt }

// JobCancelled reports whether the job was cancelled via CancelJob.
func (s *Sim) JobCancelled(job int) bool { return s.jobs[job].cancelled }

// JobSpan assembles the job's phase span from simulator state — the
// batch-frame view, where submission and admission both coincide with
// the workload arrival (a batch run has no admission queue). The serve
// daemon overlays its own submit/admit stamps on top. Milestones that
// have not happened are -1.
func (s *Sim) JobSpan(job int) obs.Span {
	j := &s.W.Jobs[job]
	js := &s.jobs[job]
	sp := obs.NewSpan(job)
	sp.Name, sp.Tenant = j.Name, j.User
	sp.SubmittedSim, sp.AdmittedSim = j.ArrivalSec, j.ArrivalSec
	sp.PlannedSim = js.firstEnqueue
	sp.FirstLaunchSim = js.firstLaunch
	sp.CostUC = int64(s.Ledger.Job(j.Name))
	if js.remaining == 0 {
		sp.DoneSim = js.doneAt
		if js.cancelled {
			sp.Outcome = obs.OutcomeCancelled
		} else {
			sp.Outcome = obs.OutcomeDone
		}
	}
	return sp
}

// JobStateCounts returns how many tasks of one job sit in each lifecycle
// state, in O(1) from the job index's counters.
func (s *Sim) JobStateCounts(job int) (pending, queued, running, done int) {
	c := &s.jobs[job].counts
	return int(c[Pending]), int(c[Queued]), int(c[Running]), int(c[Done])
}

// AddJob appends a job to the live workload and schedules its arrival,
// growing the flat task table, the state counters and (for input jobs)
// the HDFS placement in place. The job's ID, Object and InputMB fields
// are assigned here; its ArrivalSec is clamped to the current clock. For
// input jobs pass the data object (sized by obj.SizeMB; NumTasks is
// derived from the block count); the object lands fully on obj.Origin,
// exactly like a fresh upload. Only legal after Start. Every check runs
// before the first append, so a rejected job leaves nothing behind.
func (s *Sim) AddJob(job workload.Job, obj *hdfs.DataObject) (int, error) {
	if !s.started {
		return 0, fmt.Errorf("sim: AddJob before Start")
	}
	if job.AccessFrac < 0 || job.AccessFrac > 1 {
		return 0, fmt.Errorf("sim: AddJob %q: access fraction %g", job.Name, job.AccessFrac)
	}
	j := len(s.W.Jobs)
	job.ID = j
	if obj != nil {
		if obj.SizeMB <= 0 {
			return 0, fmt.Errorf("sim: AddJob %q: input object has size %g MB", job.Name, obj.SizeMB)
		}
		if int(obj.Origin) < 0 || int(obj.Origin) >= len(s.C.Stores) {
			return 0, fmt.Errorf("sim: AddJob %q: origin store %d of %d", job.Name, obj.Origin, len(s.C.Stores))
		}
		if job.CPUSecPerMB < 0 {
			return 0, fmt.Errorf("sim: AddJob %q: negative CPUSecPerMB", job.Name)
		}
		job.NumTasks = obj.NumBlocks()
	} else {
		if job.NumTasks <= 0 {
			return 0, fmt.Errorf("sim: AddJob %q: %d tasks", job.Name, job.NumTasks)
		}
		if job.CPUSecPerTask <= 0 {
			return 0, fmt.Errorf("sim: AddJob %q: CPUSecPerTask %g", job.Name, job.CPUSecPerTask)
		}
	}
	if total := int(s.taskBase[j]) + job.NumTasks; total > maxTasks {
		return 0, errTaskTable(total)
	}
	if obj != nil {
		obj.ID = hdfs.ObjectID(len(s.W.Objects))
		job.Object = obj.ID
		job.InputMB = obj.SizeMB
		s.W.Objects = append(s.W.Objects, *obj)
		s.P.AddObject(*obj)
	} else {
		job.Object = workload.NoObject
		job.InputMB = 0
	}
	if job.ArrivalSec < s.clock {
		job.ArrivalSec = s.clock
	}
	s.W.Jobs = append(s.W.Jobs, job)
	s.books = append(s.books, s.resolveBook(j))
	s.jobs = append(s.jobs, newJobState(job.NumTasks))
	s.taskBase = append(s.taskBase, s.taskBase[j]+int32(job.NumTasks))
	for t := 0; t < job.NumTasks; t++ {
		s.tasks = append(s.tasks, taskInfo{
			job: int32(j), idx: int32(t), qNode: -1, spec: -1, attempt: attempt{runPos: -1},
		})
		s.states = append(s.states, uint8(Pending))
	}
	s.stateCount[Pending] += job.NumTasks
	s.unarrived += job.NumTasks
	s.remaining++
	s.schedule(job.ArrivalSec, evArrive, int32(j), 0, 0, 0)
	// The snapshot chain stops when the run drains; a newly added job
	// must revive it or a long-lived daemon's scrapes would freeze at the
	// last idle period's values.
	if s.snapEvery > 0 && !s.snapLive {
		s.snapLive = true
		s.schedule(s.clock+s.snapEvery, evSnapshot, 0, 0, 0, 0)
	}
	return j, nil
}

// CancelJob withdraws a job from the run: running attempts are killed
// (their partial burn billed as speculative waste), queued entries voided,
// and every not-yet-done task marked Done so the scheduler never sees the
// job again. Idempotent; cancelling a completed job is a no-op. Tasks a
// cancelled job already finished stay finished (and billed).
func (s *Sim) CancelJob(job int) error {
	if job < 0 || job >= len(s.jobs) {
		return fmt.Errorf("sim: CancelJob %d of %d", job, len(s.jobs))
	}
	js := &s.jobs[job]
	if js.cancelled || js.remaining == 0 {
		return nil
	}
	js.cancelled = true
	base, end := s.taskBase[job], s.taskBase[job+1]
	// Pass 1: retire every task that holds no slot, so the dispatches
	// triggered by pass 2's kills cannot relaunch work of this job.
	for f := base; f < end; f++ {
		switch TaskState(s.states[f]) {
		case Pending:
			s.tasks[f].gen++
			s.setStateFlat(job, f, Done)
		case Queued:
			s.tasks[f].qNode = -1 // the node's next drain drops the entry
			s.tasks[f].gen++
			s.setStateFlat(job, f, Done)
			s.noteKill(job, int(f-base), cluster.NodeID(-1), trace.KillCancel, 0, false)
		}
	}
	// Pass 2: kill the running attempts, copies first (dropCopy), billing
	// each primary its partial burn. The charge is booked even at zero:
	// it opens the tenant's ledger entry.
	for f := base; f < end; f++ {
		if TaskState(s.states[f]) != Running {
			continue
		}
		ti := &s.tasks[f]
		billed, _ := s.partialBurn(job, int(f-base))
		s.dropCopy(ti, trace.KillCancel)
		s.setStateFlat(job, f, Done)
		s.endAttempt(ti, false, trace.KillCancel, billed, true, true)
	}
	if !js.arrived {
		// All of an unarrived job's tasks were counted in unarrived (they
		// were Pending); arrival, if its event is still in the heap, will
		// be skipped by the cancelled guard.
		s.unarrived -= s.W.Jobs[job].NumTasks
	}
	js.remaining = 0
	s.unlinkActive(job)
	js.doneAt = s.clock
	s.remaining--
	// Release dependents exactly as a real completion would (§III DAG
	// leveling): a cancelled prerequisite no longer gates anything.
	for _, dep := range js.dependents {
		s.jobs[dep].waitingOn--
		if s.jobs[dep].waitingOn == 0 {
			arriveAt := s.W.Jobs[dep].ArrivalSec
			if arriveAt < s.clock {
				arriveAt = s.clock
			}
			s.schedule(arriveAt, evArrive, int32(dep), 0, 0, 0)
		}
	}
	return nil
}

// InjectFault schedules one fault into a live run — the serve-mode
// counterpart of Options.Faults, for node churn delivered over the
// daemon's admin API. Firing times earlier than the clock are clamped to
// "now" (the next StepUntil executes them first).
func (s *Sim) InjectFault(f Fault) error {
	if !s.started {
		return fmt.Errorf("sim: InjectFault before Start")
	}
	plan := FaultPlan{Faults: []Fault{f}}
	if f.At < s.clock {
		f.At = s.clock
		plan.Faults[0].At = s.clock
	}
	if err := plan.validate(s.C); err != nil {
		return err
	}
	s.At(f.At, func() { s.inject(f) })
	return nil
}

// CurrentResult assembles a Result from the run's state so far — the
// daemon's shutdown summary. Unlike Run's return value it may describe an
// unfinished run: jobs still in flight report a zero completion time.
func (s *Sim) CurrentResult() *Result { return s.result() }
