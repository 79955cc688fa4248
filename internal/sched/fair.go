package sched

import (
	"slices"

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

	poolOf []int32          // job → pool id
	pools  map[string]int32 // pool (the job's User) → id

	// Per-decision scratch, indexed by pool id: the pool's oldest job
	// with pending work (-1 none) and its running tasks; order lists the
	// pools with pending work as the FIFO walk meets them.
	oldest  []int
	running []int
	order   []int32
}

// NewFair returns a fair scheduler.
func NewFair() *Fair { return &Fair{} }

// Name implements sim.Scheduler.
func (f *Fair) Name() string { return "fair" }

// Init implements sim.Scheduler. The pools are run-scoped and reset
// here, so one *Fair reused across runs starts each run clean.
func (f *Fair) Init(s *sim.Sim) {
	f.poolOf = f.poolOf[:0]
	f.pools = make(map[string]int32)
	f.poolJobs(s)
}

// poolJobs gives every job not yet pooled its pool id.
func (f *Fair) poolJobs(s *sim.Sim) {
	for j := len(f.poolOf); j < len(s.W.Jobs); j++ {
		user := s.W.Jobs[j].User
		id, ok := f.pools[user]
		if !ok {
			id = int32(len(f.pools))
			f.pools[user] = id
		}
		f.poolOf = append(f.poolOf, id)
	}
}

// OnJobArrival implements sim.Scheduler. Jobs added after Init (serve
// mode) join their pools here; Init covered only the workload it saw.
func (f *Fair) OnJobArrival(s *sim.Sim, j int) {
	f.poolJobs(s)
	s.IndexLocality(j)
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

// pickFairTask chooses the most-deficit pool with pending work, then the
// pool's oldest job's best-locality task. Running tasks come from the
// simulator's per-job counters, which timeouts and speculative copies
// cannot drift.
func (f *Fair) pickFairTask(s *sim.Sim, n cluster.NodeID) (job, task int, store cluster.StoreID, ok bool) {
	pools := len(f.pools)
	f.oldest = slices.Grow(f.oldest[:0], pools)[:pools]
	f.running = slices.Grow(f.running[:0], pools)[:pools]
	for p := range f.oldest {
		f.oldest[p], f.running[p] = -1, 0
	}
	// Deterministic pool order: jobs come in FIFO order, so each pool's
	// first job with pending work defines the pool's order of appearance.
	f.order = f.order[:0]
	for j := s.NextArrived(-1); j >= 0; j = s.NextArrived(j) {
		p := f.poolOf[j]
		_, _, running, _ := s.JobStateCounts(j)
		f.running[p] += running
		if f.oldest[p] < 0 && s.NextPending(j, 0) >= 0 {
			f.oldest[p] = j
			f.order = append(f.order, p)
		}
	}
	if len(f.order) == 0 {
		return 0, 0, 0, false
	}
	best := f.order[0]
	for _, p := range f.order[1:] {
		if f.running[p] < f.running[best] {
			best = p
		}
	}
	j := f.oldest[best]
	t, st, _ := s.BestLocalityTask(j, n)
	return j, t, st, true
}
