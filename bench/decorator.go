package main

import (
	"time"

	"lips/internal/cluster"
	"lips/internal/sim"
)

// sampleEvery is the stride at which the decorator times a callback. A
// 10k-node batch run makes millions of callbacks of ~100 ns; two clock
// reads around each one would cost more than the callbacks do, so one in
// sampleEvery is timed (per callback kind, so that alternating kinds
// cannot alias onto the stride) and the total is scaled up.
const sampleEvery = 8

// callbackKinds indexes the per-kind counters.
const (
	cbArrival = iota
	cbSlotFree
	cbSlotsFree
	cbTaskDone
	cbNode
	callbackKinds
)

// timedSched wraps a sim.Scheduler and measures, from outside both
// layers, how much of a simulator step is spent in scheduler callbacks.
// LiPS plans from closures it registers with sim.At, which no decorator
// sees; its planning time comes from its own exported counters instead.
type timedSched struct {
	inner   sim.Scheduler
	calls   [callbackKinds]int64
	sampled [callbackKinds]time.Duration
}

// decorate wraps inner, keeping it a sim.BatchScheduler when it is one:
// sim.New picks the batch path by type assertion, and a wrapper that hid
// OnSlotsFree would silently change how the program runs.
func decorate(inner sim.Scheduler) (sim.Scheduler, *timedSched) {
	d := &timedSched{inner: inner}
	if b, ok := inner.(sim.BatchScheduler); ok {
		return &timedBatchSched{timedSched: d, batch: b}, d
	}
	return d, d
}

func (d *timedSched) timed(kind int, fn func()) {
	d.calls[kind]++
	if d.calls[kind]%sampleEvery != 0 {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	d.sampled[kind] += time.Since(t0)
}

// callbackTime estimates the wall spent inside every callback.
func (d *timedSched) callbackTime() time.Duration {
	var total time.Duration
	for _, s := range d.sampled {
		total += s * sampleEvery
	}
	return total
}

func (d *timedSched) Name() string    { return d.inner.Name() }
func (d *timedSched) Init(s *sim.Sim) { d.inner.Init(s) }
func (d *timedSched) OnJobArrival(s *sim.Sim, job int) {
	d.timed(cbArrival, func() { d.inner.OnJobArrival(s, job) })
}
func (d *timedSched) OnSlotFree(s *sim.Sim, n cluster.NodeID) {
	d.timed(cbSlotFree, func() { d.inner.OnSlotFree(s, n) })
}
func (d *timedSched) OnTaskDone(s *sim.Sim, job, task int) {
	d.timed(cbTaskDone, func() { d.inner.OnTaskDone(s, job, task) })
}
func (d *timedSched) OnNodeDown(s *sim.Sim, n cluster.NodeID) {
	d.timed(cbNode, func() { d.inner.OnNodeDown(s, n) })
}
func (d *timedSched) OnNodeUp(s *sim.Sim, n cluster.NodeID) {
	d.timed(cbNode, func() { d.inner.OnNodeUp(s, n) })
}

type timedBatchSched struct {
	*timedSched
	batch sim.BatchScheduler
}

func (d *timedBatchSched) OnSlotsFree(s *sim.Sim, nodes []cluster.NodeID) {
	d.timed(cbSlotsFree, func() { d.batch.OnSlotsFree(s, nodes) })
}
