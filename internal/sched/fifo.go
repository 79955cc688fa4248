// Package sched implements the task schedulers the paper evaluates:
// the Hadoop default FIFO locality-greedy scheduler, the delay scheduler
// (Zaharia et al., EuroSys'10), the Facebook fair scheduler, and LiPS
// itself (epoch-driven LP co-scheduling of data and tasks).
package sched

import (
	"fmt"

	"lips/internal/cluster"
	"lips/internal/sim"
)

// Names lists the schedulers ByName builds.
var Names = []string{"fifo", "delay", "fair", "lips", "scale"}

// ByName builds the scheduler a command line names; epochSec is the
// LiPS planning epoch and means nothing to the others.
func ByName(name string, epochSec float64) (sim.Scheduler, error) {
	switch name {
	case "fifo":
		return NewFIFO(), nil
	case "delay":
		return NewDelay(), nil
	case "fair":
		return NewFair(), nil
	case "lips":
		return NewLiPS(epochSec), nil
	case "scale":
		return NewScale(), nil
	}
	return nil, fmt.Errorf("unknown scheduler %q (want one of %v)", name, Names)
}

// FIFO is Hadoop's default scheduler: jobs run in arrival order; when a
// TaskTracker frees a slot the JobTracker greedily picks, from the oldest
// job with pending work, the task whose data is closest to the tracker
// (node-local, then same zone, then remote).
type FIFO struct{ sim.NopNodeEvents }

// NewFIFO returns the Hadoop default scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements sim.Scheduler.
func (f *FIFO) Name() string { return "hadoop-default" }

// Init implements sim.Scheduler.
func (f *FIFO) Init(*sim.Sim) {}

// OnJobArrival implements sim.Scheduler.
func (f *FIFO) OnJobArrival(s *sim.Sim, _ int) { s.KickIdleNodes() }

// OnTaskDone implements sim.Scheduler.
func (f *FIFO) OnTaskDone(*sim.Sim, int, int) {}

// OnSlotFree implements sim.Scheduler: serve the oldest job's
// best-locality pending task; fall back to speculative execution.
func (f *FIFO) OnSlotFree(s *sim.Sim, n cluster.NodeID) {
	for s.FreeSlots(n) > 0 {
		job, task, store, ok := oldestJobBestTask(s, n)
		if !ok {
			s.LaunchSpeculative(n)
			return
		}
		if err := s.Launch(job, task, n, store); err != nil {
			return
		}
	}
}

// oldestJobBestTask finds, in FIFO order, the first job with pending tasks
// and its best-locality task for node n.
func oldestJobBestTask(s *sim.Sim, n cluster.NodeID) (job, task int, store cluster.StoreID, ok bool) {
	for _, j := range s.ArrivedJobs() {
		pending := s.PendingTasks(j)
		if len(pending) == 0 {
			continue
		}
		t, st, _ := bestLocalityTask(s, j, pending, n)
		return j, t, st, true
	}
	return 0, 0, 0, false
}

// bestLocalityTask picks the pending task of job j whose input is closest
// to n (ties to the lowest index) and returns its locality rank. Jobs
// without input return NoStore with rank 0.
func bestLocalityTask(s *sim.Sim, j int, pending []int, n cluster.NodeID) (int, cluster.StoreID, int) {
	if !s.W.Jobs[j].HasInput() {
		return pending[0], sim.NoStore, 0
	}
	bestT, bestStore, bestRank := -1, cluster.StoreID(0), 4
	for _, t := range pending {
		store, rank := s.BestReplicaRank(j, t, n)
		if rank < bestRank {
			bestT, bestStore, bestRank = t, store, rank
			if rank == 0 {
				break
			}
		}
	}
	return bestT, bestStore, bestRank
}
