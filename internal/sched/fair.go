package sched

import (
	"lips/internal/cluster"
	"lips/internal/sim"
)

// Fair is Facebook's FairScheduler (paper §II): jobs belong to pools (we
// pool by the job's User) and each pool gets a fair share of the cluster's
// slots over time. When a slot frees, the pool furthest below its share —
// the one with the fewest running tasks, every pool weighing the same —
// schedules next; within a pool jobs run FIFO with locality-greedy task
// choice. FairScheduler's min shares and preemption are not modelled.
type Fair struct {
	sim.NopNodeEvents

	poolOf map[int]string // job → pool
}

// NewFair returns a fair scheduler.
func NewFair() *Fair { return &Fair{} }

// Name implements sim.Scheduler.
func (f *Fair) Name() string { return "fair" }

// Init implements sim.Scheduler. The pool map is run-scoped and resets
// here, so one *Fair reused across runs starts each run clean.
func (f *Fair) Init(s *sim.Sim) {
	f.poolOf = make(map[int]string)
	for j, job := range s.W.Jobs {
		f.poolOf[j] = job.User
	}
}

// OnJobArrival implements sim.Scheduler. Jobs added after Init (serve
// mode) enter the pool map here; Init covered only the workload it saw.
func (f *Fair) OnJobArrival(s *sim.Sim, j int) {
	if _, ok := f.poolOf[j]; !ok {
		f.poolOf[j] = s.W.Jobs[j].User
	}
	s.KickIdleNodes()
}

// OnTaskDone implements sim.Scheduler.
func (f *Fair) OnTaskDone(*sim.Sim, int, int) {}

// OnSlotFree implements sim.Scheduler.
func (f *Fair) OnSlotFree(s *sim.Sim, n cluster.NodeID) {
	for s.FreeSlots(n) > 0 {
		job, task, store, ok := f.pickFairTask(s, n)
		if !ok {
			s.LaunchSpeculative(n)
			return
		}
		if err := s.Launch(job, task, n, store); err != nil {
			return
		}
	}
}

// runningByPool counts currently running tasks per pool from the
// simulator's per-job counters, which timeouts and speculative copies
// cannot drift.
func (f *Fair) runningByPool(s *sim.Sim) map[string]int {
	out := make(map[string]int)
	for j := s.NextArrived(-1); j >= 0; j = s.NextArrived(j) {
		_, _, running, _ := s.JobStateCounts(j)
		out[f.poolOf[j]] += running
	}
	return out
}

// pickFairTask chooses the most-deficit pool with pending work, then the
// pool's oldest job's best-locality task.
func (f *Fair) pickFairTask(s *sim.Sim, n cluster.NodeID) (job, task int, store cluster.StoreID, ok bool) {
	// Deterministic pool scan: jobs are already in FIFO order, so the
	// first job of each pool defines the pool's order of appearance.
	type cand struct{ job, first int }
	byPool := make(map[string]cand)
	var poolOrder []string
	for j := s.NextArrived(-1); j >= 0; j = s.NextArrived(j) {
		pool := f.poolOf[j]
		if _, seen := byPool[pool]; seen {
			continue
		}
		first := s.NextPending(j, 0)
		if first < 0 {
			continue
		}
		byPool[pool] = cand{job: j, first: first}
		poolOrder = append(poolOrder, pool)
	}
	if len(poolOrder) == 0 {
		return 0, 0, 0, false
	}
	running := f.runningByPool(s)
	best := ""
	for _, pool := range poolOrder {
		if best == "" || running[pool] < running[best] {
			best = pool
		}
	}
	c := byPool[best]
	t, st, _ := bestLocalityTask(s, c.job, c.first, n)
	return c.job, t, st, true
}
