package sched

import (
	"lips/internal/cluster"
	"lips/internal/sim"
)

// Delay is the delay scheduler of Zaharia et al. (EuroSys'10): when the
// job that should run next cannot launch a node-local task on the free
// slot, it briefly yields to later jobs instead of launching a non-local
// task. A job skipped for longer than W1 may launch zone-local tasks;
// after an additional W2 it may launch anywhere. The paper uses this as
// its "move computation" baseline — with enough small jobs it reaches
// almost 100% data locality.
type Delay struct {
	sim.NopNodeEvents

	// waitSec is both W1 and W2; 0 means delayWaitSec. A test sets it
	// longer; nothing else sets it.
	waitSec float64

	skippedSince map[int]float64
	retryArmed   map[cluster.NodeID]bool
}

// delayWaitSec is each locality-relaxation threshold, W1 and W2, in line
// with the delay-scheduling paper's small multiples of the task length.
const delayWaitSec = 15

// NewDelay returns a delay scheduler.
func NewDelay() *Delay { return &Delay{} }

// Name implements sim.Scheduler.
func (d *Delay) Name() string { return "delay" }

// Init implements sim.Scheduler.
func (d *Delay) Init(*sim.Sim) {
	if d.waitSec == 0 {
		d.waitSec = delayWaitSec
	}
	d.skippedSince = make(map[int]float64)
	d.retryArmed = make(map[cluster.NodeID]bool)
}

// OnJobArrival implements sim.Scheduler.
func (d *Delay) OnJobArrival(s *sim.Sim, j int) {
	s.IndexLocality(j)
	s.KickIdleNodes()
}

// OnTaskDone implements sim.Scheduler.
func (d *Delay) OnTaskDone(*sim.Sim, int, int) {}

// OnSlotFree implements sim.Scheduler.
func (d *Delay) OnSlotFree(s *sim.Sim, n cluster.NodeID) {
	d.forgetLeft(s)
	for s.FreeSlots(n) > 0 {
		if !d.assignOne(s, n) {
			if s.LaunchSpeculative(n) {
				continue
			}
			// Every job is currently yielding for locality: retry once
			// its wait expires, or nothing will wake this slot up.
			if pending, _, _, _ := s.StateCounts(); pending > 0 && !d.retryArmed[n] {
				d.retryArmed[n] = true
				s.At(s.Now()+d.waitSec/2+0.5, func() {
					d.retryArmed[n] = false
					if s.FreeSlots(n) > 0 {
						d.OnSlotFree(s, n)
					}
				})
			}
			return
		}
	}
}

// forgetLeft drops the yield stamps of cancelled jobs. A job launches
// its last pending task through assignOne, which drops its stamp, so
// only a job cancelled while it yielded can leave one behind — and a
// daemon cancels jobs for as long as it runs. A cancelled job never has
// a Pending task again, so its stamp goes at the first slot-free
// callback, even one its own cancel makes.
func (d *Delay) forgetLeft(s *sim.Sim) {
	for j := range d.skippedSince {
		if s.JobCancelled(j) {
			delete(d.skippedSince, j)
		}
	}
}

// assignOne scans jobs in FIFO order under the delay rule and launches at
// most one task; it reports whether anything launched.
func (d *Delay) assignOne(s *sim.Sim, n cluster.NodeID) bool {
	now := s.Now()
	for j := s.NextArrived(-1); j >= 0; j = s.NextArrived(j) {
		t, store, rank := s.BestLocalityTask(j, n)
		if t < 0 {
			continue
		}
		if rank == 0 {
			// Node-local, or no input and so no locality concern.
			delete(d.skippedSince, j)
			return s.Launch(j, t, n, store) == nil
		}
		since, wasSkipped := d.skippedSince[j]
		if !wasSkipped {
			d.skippedSince[j] = now
			continue // yield this opportunity to later jobs
		}
		waited := now - since
		switch {
		case rank == 1 && waited >= d.waitSec:
			delete(d.skippedSince, j)
			return s.Launch(j, t, n, store) == nil
		case waited >= 2*d.waitSec:
			delete(d.skippedSince, j)
			return s.Launch(j, t, n, store) == nil
		default:
			continue
		}
	}
	return false
}
