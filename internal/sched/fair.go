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
// choice.
type Fair struct {
	sim.NopNodeEvents

	// MinShare guarantees a pool a minimum number of concurrently
	// running tasks; pools below their minimum are served first
	// (FairScheduler's "guaranteed minimum number of slots").
	MinShare map[string]int
	// PreemptTimeoutSec enables FairScheduler-style preemption: a pool
	// starved below its MinShare for longer than this kills the newest
	// task of the most over-served pool. 0 disables preemption.
	PreemptTimeoutSec float64

	// Preemptions counts kills (readable after a run).
	Preemptions int

	poolOf      map[int]string // job → pool
	belowSince  map[string]float64
	preemptLive bool // a future preempt tick is in the heap
}

// NewFair returns a fair scheduler.
func NewFair() *Fair { return &Fair{} }

// Name implements sim.Scheduler.
func (f *Fair) Name() string { return "fair" }

// Init implements sim.Scheduler. Everything run-scoped — the pool map,
// the starvation clocks, the preemption counter and the ticker — resets
// here, so one *Fair reused across runs starts each run clean.
func (f *Fair) Init(s *sim.Sim) {
	f.poolOf = make(map[int]string)
	f.belowSince = make(map[string]float64)
	f.Preemptions = 0
	f.preemptLive = false
	for j, job := range s.W.Jobs {
		f.poolOf[j] = job.User
	}
	f.armPreempt(s)
}

// armPreempt starts the preemption ticker if preemption is configured and
// no tick is already pending. The ticker stops itself once every job
// completes, so arrivals into an idle run re-arm it here.
func (f *Fair) armPreempt(s *sim.Sim) {
	if f.PreemptTimeoutSec <= 0 || f.preemptLive {
		return
	}
	f.preemptLive = true
	period := f.PreemptTimeoutSec / 2
	var tick func()
	tick = func() {
		if f.preemptCheck(s) {
			s.At(s.Now()+period, tick)
		} else {
			f.preemptLive = false
		}
	}
	s.At(s.Now()+period, tick)
}

// preemptCheck kills one task of the most over-served pool for every pool
// starved below its MinShare past the timeout. It reports whether any job
// is still incomplete (to keep the ticker alive).
func (f *Fair) preemptCheck(s *sim.Sim) bool {
	alive := false
	for j := range s.W.Jobs {
		if s.JobRemaining(j) > 0 {
			alive = true
			break
		}
	}
	if !alive {
		return false
	}
	running := f.runningByPool(s)
	now := s.Now()
	for pool, min := range f.MinShare {
		if min <= 0 {
			continue
		}
		starving := running[pool] < min && f.poolHasPending(s, pool)
		if !starving {
			delete(f.belowSince, pool)
			continue
		}
		since, ok := f.belowSince[pool]
		if !ok {
			f.belowSince[pool] = now
			continue
		}
		if now-since < f.PreemptTimeoutSec {
			continue
		}
		if f.preemptOne(s, pool, running) {
			f.Preemptions++
			f.belowSince[pool] = now // restart the clock after one kill
		}
	}
	return true
}

func (f *Fair) poolHasPending(s *sim.Sim, pool string) bool {
	for _, j := range s.ArrivedJobs() {
		if f.poolOf[j] == pool && len(s.PendingTasks(j)) > 0 {
			return true
		}
	}
	return false
}

// preemptOne kills the newest running task of the pool furthest above its
// own minimum share (excluding the starved pool itself).
func (f *Fair) preemptOne(s *sim.Sim, starved string, running map[string]int) bool {
	victimPool, surplus := "", 0
	for pool, r := range running {
		if pool == starved {
			continue
		}
		over := r - f.MinShare[pool]
		if over > surplus {
			victimPool, surplus = pool, over
		}
	}
	if victimPool == "" {
		return false
	}
	// Newest task: the running task with the latest expected finish.
	bestJob, bestTask := -1, -1
	for _, j := range s.ArrivedJobs() {
		if f.poolOf[j] != victimPool {
			continue
		}
		for _, t := range s.RunningTasks(j) {
			if bestJob == -1 {
				bestJob, bestTask = j, t
			}
		}
	}
	if bestJob == -1 {
		return false
	}
	return s.KillTask(bestJob, bestTask) == nil
}

// OnJobArrival implements sim.Scheduler. Jobs added after Init (serve
// mode) enter the pool map here; Init covered only the workload it saw.
func (f *Fair) OnJobArrival(s *sim.Sim, j int) {
	if _, ok := f.poolOf[j]; !ok {
		f.poolOf[j] = s.W.Jobs[j].User
	}
	f.armPreempt(s)
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

// runningByPool counts currently running tasks per pool; computed live so
// that timeouts and speculative copies cannot drift a cached counter.
func (f *Fair) runningByPool(s *sim.Sim) map[string]int {
	out := make(map[string]int)
	for _, j := range s.ArrivedJobs() {
		running := 0
		for t := 0; t < s.W.Jobs[j].NumTasks; t++ {
			if s.TaskState(j, t) == sim.Running {
				running++
			}
		}
		out[f.poolOf[j]] += running
	}
	return out
}

// pickFairTask chooses the most-deficit pool with pending work, then the
// pool's oldest job's best-locality task.
func (f *Fair) pickFairTask(s *sim.Sim, n cluster.NodeID) (job, task int, store cluster.StoreID, ok bool) {
	// Deterministic pool scan: jobs are already in FIFO order, so the
	// first job of each pool defines the pool's order of appearance.
	type cand struct {
		job     int
		pending []int
	}
	byPool := make(map[string]cand)
	var poolOrder []string
	for _, j := range s.ArrivedJobs() {
		pool := f.poolOf[j]
		if _, seen := byPool[pool]; seen {
			continue
		}
		pending := s.PendingTasks(j)
		if len(pending) == 0 {
			continue
		}
		byPool[pool] = cand{job: j, pending: pending}
		poolOrder = append(poolOrder, pool)
	}
	if len(poolOrder) == 0 {
		return 0, 0, 0, false
	}
	running := f.runningByPool(s)
	// Pools below their guaranteed minimum are served before fair-share
	// ordering applies.
	best := ""
	var bestGap int
	for _, pool := range poolOrder {
		if gap := f.MinShare[pool] - running[pool]; gap > bestGap {
			best, bestGap = pool, gap
		}
	}
	if best == "" {
		for _, pool := range poolOrder {
			if best == "" || running[pool] < running[best] {
				best = pool
			}
		}
	}
	c := byPool[best]
	t, st, _ := bestLocalityTask(s, c.job, c.pending, n)
	return c.job, t, st, true
}
