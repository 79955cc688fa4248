package sim

import (
	"fmt"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/trace"
)

// NoStore marks a launch without input data (Pi-style tasks).
const NoStore cluster.StoreID = -1

// priceOf returns a node's current ECU-second price, applying the spot
// multiplier if configured.
func (s *Sim) priceOf(node *cluster.Node) cost.Money {
	if s.opts.PriceMultiplier == nil {
		return node.PerECUSec
	}
	return node.PerECUSec.MulFloat(s.opts.PriceMultiplier(node.Type, s.clock))
}

// taskDemand returns the ECU-seconds and transferred megabytes of one
// task. Partial-access jobs (fractional JD) touch only their access
// fraction of each block.
func (s *Sim) taskDemand(job, task int) (cpuSec, mb float64) {
	j := &s.W.Jobs[job]
	if !j.HasInput() {
		return j.CPUSecPerTask, 0
	}
	mb = s.W.Objects[j.Object].BlockSizeMB(task) * j.EffectiveAccessFrac()
	return mb * j.CPUSecPerMB, mb
}

// observeLocality classifies and records where a launched task reads
// from, returning the classification.
func (s *Sim) observeLocality(n cluster.NodeID, store cluster.StoreID, hasInput bool) Locality {
	var l Locality
	switch {
	case !hasInput:
		l = NoInput
	case cluster.StoreID(s.nodeStore[n]) == store:
		l = NodeLocal
	case s.nodeZone[n] == s.storeZone[store]:
		l = ZoneLocal
	default:
		l = Remote
	}
	s.Locality.Observe(l)
	return l
}

// Launch starts task (job, task) immediately on node n, reading its input
// block from store. The node must have a free slot; input jobs must pass
// the store actually holding the block (any replica), no-input jobs pass
// NoStore. Launch returns an error on misuse — scheduler bugs, surfaced
// loudly rather than silently absorbed.
func (s *Sim) Launch(job, task int, n cluster.NodeID, store cluster.StoreID) error {
	flat := s.flat(job, task)
	st := s.state(flat)
	if st == Running || st == Done {
		return fmt.Errorf("sim: task %d/%d launched twice", job, task)
	}
	if s.nodes[n].down {
		return fmt.Errorf("sim: node %d is down", n)
	}
	if s.nodes[n].free <= 0 {
		return fmt.Errorf("sim: no free slot on node %d", n)
	}
	j := &s.W.Jobs[job]
	if j.HasInput() {
		if store == NoStore {
			return fmt.Errorf("sim: task %d/%d needs an input store", job, task)
		}
		if !s.P.HasReplicaOn(j.Object, task, store) {
			return fmt.Errorf("sim: task %d/%d: store %d does not hold block %d of object %d", job, task, store, task, j.Object)
		}
	} else {
		store = NoStore
	}
	if st == Queued {
		// Launched out from under its queue entry; void the entry so the
		// node's next drain drops it instead of double-launching.
		s.row(flat).qNode = -1
	}
	s.startAttempt(job, task, n, store, false)
	return nil
}

// attemptOf returns the record of ti's primary attempt or, when
// speculative, of its speculative copy — nil when it has none.
func (s *Sim) attemptOf(ti *taskInfo, speculative bool) *attempt {
	switch {
	case !speculative:
		return &ti.attempt
	case ti.spec < 0:
		return nil
	}
	return &s.specs[ti.spec]
}

// genOf returns the generation that stamps the events of ti's primary
// or, when speculative, of its copy.
func (ti *taskInfo) genOf(speculative bool) int32 {
	if speculative {
		return ti.specGen
	}
	return ti.gen
}

// liveAttempt returns the record of the task's primary or copy while
// events stamped gen are still its own, and nil once that attempt has
// ended: completed, killed or, for a copy, settled.
func (s *Sim) liveAttempt(job, task int, speculative bool, gen int32) *attempt {
	ti := s.task(job, task)
	if ti.genOf(speculative) != gen {
		return nil
	}
	return s.attemptOf(ti, speculative)
}

// startAttempt begins one execution attempt, the task's primary or a
// speculative copy.
func (s *Sim) startAttempt(job, task int, n cluster.NodeID, store cluster.StoreID, speculative bool) {
	flat := s.flat(job, task)
	ti := s.row(flat)
	j := &s.W.Jobs[job]
	node := &s.C.Nodes[n]
	s.slotTaken(n)

	cpuSec, mb := s.taskDemand(job, task)
	slotECU := node.ECU / float64(node.Slots)
	transferSec := 0.0
	if mb > 0 {
		transferSec = mb / s.bandwidthStoreNode(store, n)
	}
	runSec := cpuSec / slotECU * s.slowdownOf(n)

	// The attempt is billed at the node's price when it starts, so spot
	// moves after launch do not reprice work already underway.
	price := s.priceOf(node)
	ref, a := flat<<1, &ti.attempt
	if speculative {
		ref, a = ref|1, s.allocSpec(ti)
	} else {
		s.setStateFlat(job, flat, Running)
		if js := &s.jobs[job]; js.firstLaunch < 0 {
			js.firstLaunch = s.clock
			if js.firstEnqueue < 0 {
				// A direct Launch with no queue stop still counts as the
				// job's first scheduler pin (the epoch-planned milestone).
				js.firstEnqueue = s.clock
			}
		}
		ti.attempts++
		ti.doneAt = s.clock + transferSec + runSec // expected finish
	}
	*a = attempt{
		node: n, store: store, start: s.clock,
		wallSec:       transferSec + runSec,
		transferEndAt: s.clock + transferSec,
		price:         price,
		runPos:        s.trackRunning(ref),
	}
	loc := s.observeLocality(n, store, j.HasInput())
	s.noteLaunch(job, task, int(ti.attempts), n, store, loc, speculative)

	if s.opts.SharedLinks && mb > 0 && node.Store != store {
		s.startSharedAttempt(job, task, mb, runSec, speculative)
		return
	}
	if !speculative && transferSec > s.opts.TaskTimeoutSec && int(ti.attempts) <= s.opts.maxAttempts {
		// Hadoop's progress timeout: the task is killed after the
		// timeout window; the bytes moved so far are still billed. No
		// completion event is scheduled — the timeout is this attempt's
		// only future.
		s.schedule(s.clock+s.opts.TaskTimeoutSec, evTimeout, int32(job), int32(task), ti.gen, 0)
		return
	}
	s.schedule(s.clock+transferSec+runSec, evComplete, int32(job), int32(task), ti.genOf(speculative), ref&1)
}

// timeoutEvent fires Hadoop's progress timeout on a dedicated-rate
// primary attempt (evTimeout).
func (s *Sim) timeoutEvent(job, task int, gen int32) {
	if a := s.liveAttempt(job, task, false, gen); a != nil {
		s.timeoutKill(job, task, s.opts.TaskTimeoutSec*s.bandwidthStoreNode(a.store, a.node))
	}
}

// timeoutKill ends a primary attempt at Hadoop's progress timeout, after
// movedMB of its input crossed: it bills that partial read and the slot's
// busy time, and returns the task to Pending.
func (s *Sim) timeoutKill(job, task int, movedMB float64) {
	ti := s.task(job, task)
	billed := s.msPerGB(ti.node, ti.store).MulFloat(movedMB / 1024)
	s.busySlotSec += s.opts.TaskTimeoutSec
	s.setStateFlat(job, s.flat(job, task), Pending)
	s.endAttempt(ti, false, trace.KillTimeout, billed, true, true)
}

// completeEvent finishes a dedicated-rate attempt (evComplete). The
// demand is recomputed (it is a pure function of the workload) and the
// wall time was stored at launch, so the typed event needs no closure.
func (s *Sim) completeEvent(job, task int, gen int32, speculative bool) {
	if s.liveAttempt(job, task, speculative, gen) != nil {
		s.completeAttempt(job, task, speculative)
	}
}

// startSharedAttempt runs one attempt whose input read contends on the
// shared zone-pair link (Options.SharedLinks). The transfer becomes a
// processor-sharing flow; Hadoop's progress timeout applies to a
// primary's transfer phase only, as in the dedicated-rate path. Flow
// completion times depend on future link membership, so this rare path
// keeps closure events. A task row never moves, but by the time such an
// event runs the attempt may have ended and a copy's pooled record may
// serve another task's copy (or have moved as the pool grew), so each
// finds its attempt again through liveAttempt.
func (s *Sim) startSharedAttempt(job, task int, mb, runSec float64, speculative bool) {
	ti := s.task(job, task)
	gen := ti.genOf(speculative)
	a := s.attemptOf(ti, speculative)
	f := s.net.start(s.C.Stores[a.store].Zone, s.C.Nodes[a.node].Zone, mb, func() {
		a := s.liveAttempt(job, task, speculative, gen)
		if a == nil {
			return
		}
		a.flow = 0
		a.transferEndAt = s.clock
		s.At(s.clock+runSec, func() {
			if a := s.liveAttempt(job, task, speculative, gen); a != nil {
				a.wallSec = s.clock - a.start
				s.completeAttempt(job, task, speculative)
			}
		})
	})
	a.flow = f.id
	if speculative {
		return
	}
	ti.doneAt = a.start + mb/f.rate + runSec // optimistic estimate for speculation
	if int(ti.attempts) <= s.opts.maxAttempts {
		s.At(a.start+s.opts.TaskTimeoutSec, func() {
			a := s.liveAttempt(job, task, false, gen)
			if a == nil || a.flow == 0 {
				return // attempt superseded or transfer already finished
			}
			moved := s.net.cancel(a.flow)
			a.flow = 0
			s.timeoutKill(job, task, moved)
		})
	}
}

// completeAttempt finishes one attempt: bills it, frees the slot, settles
// any speculative twin, and fires the completion callbacks.
func (s *Sim) completeAttempt(job, task int, speculative bool) {
	flat := s.flat(job, task)
	ti := s.row(flat)
	a := s.attemptOf(ti, speculative)
	n := a.node
	node := &s.C.Nodes[n]
	cpuSec, mb := s.taskDemand(job, task)

	billedCPUSec := cpuSec
	if s.opts.BillOccupancy {
		billedCPUSec = a.wallSec * node.ECU / float64(node.Slots)
	}
	billed := cost.CPUCost(a.price, billedCPUSec)
	s.charge(cost.CatCPU, job, billed)
	var xferBilled cost.Money
	if mb > 0 {
		xferBilled = s.msPerGB(n, a.store).MulFloat(mb / 1024)
		s.charge(cost.CatTransfer, job, xferBilled)
		billed += xferBilled
	}
	s.NodeCPU.Add(int(n), cpuSec)
	u := &s.users[s.books[job].user]
	u.cpu += cpuSec
	u.seen = true
	s.busySlotSec += a.wallSec
	s.untrack(a)
	s.slotFreed(n)

	s.noteDone(job, task, int(ti.attempts), n, a.store, a.wallSec, a.transferEndAt, billedCPUSec, billed, xferBilled, speculative)

	// Settle the twin attempt, if any.
	if speculative {
		// The copy won: kill the primary unless a timeout or a fault ended
		// it first and nothing relaunched the task. It bills half its
		// demand as speculative waste, the rule every recorded speculative
		// run was booked under. The copy's record is released now: left
		// marked running, a later fault on the copy's node would bill a
		// completed task.
		if s.state(flat) == Running {
			s.endAttempt(ti, false, trace.KillSpeculative, cost.CPUCost(ti.price, cpuSec/2), true, true)
		}
		s.freeSpec(ti)
		ti.specGen++
	} else if ti.spec >= 0 {
		s.cancelSpeculative(job, task, true, trace.KillSpeculative)
	}

	ti.gen++
	s.setStateFlat(job, flat, Done)
	ti.doneAt = s.clock
	js := &s.jobs[job]
	js.remaining--
	if js.remaining == 0 {
		s.unlinkActive(job)
		js.doneAt = s.clock
		s.remaining--
		// Release dependents whose prerequisites are now all complete
		// (§III DAG leveling): they arrive at max(now, their own
		// ArrivalSec).
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
	}
	s.sched.OnTaskDone(s, job, task)
	s.dispatch(n)
}

// endAttempt ends a running attempt that will not complete — ti's primary
// or, when speculative, its copy. It cancels the attempt's shared-link
// flow, books billed under the reason's kill category when book is set,
// takes the attempt out of the running index, voids its pending events,
// records the kill and, when freeSlot is set, frees the slot and
// dispatches the node; a copy's record goes back to the pool. The amount
// billed, the slot's busy time and a primary's next state are the
// caller's.
func (s *Sim) endAttempt(ti *taskInfo, speculative bool, reason trace.KillReason, billed cost.Money, book, freeSlot bool) {
	job := int(ti.job)
	a := s.attemptOf(ti, speculative)
	n := a.node
	if a.flow != 0 {
		s.net.cancel(a.flow)
		a.flow = 0
	}
	if book {
		s.charge(reason.Category(), job, billed)
	}
	s.untrack(a)
	if speculative {
		s.freeSpec(ti)
		ti.specGen++
	} else {
		ti.gen++
	}
	s.noteKill(job, int(ti.idx), n, reason, billed, speculative)
	if freeSlot {
		s.slotFreed(n)
		s.dispatch(n)
	}
}

// cancelSpeculative cancels the task's speculative copy, if it has one,
// billing the CPU it burned so far (its partial read folded in) under the
// kill reason's category. freeSlot is false when the copy's node crashed
// and took the slot with it.
func (s *Sim) cancelSpeculative(job, task int, freeSlot bool, reason trace.KillReason) {
	ti := s.task(job, task)
	a := s.attemptOf(ti, true)
	if a == nil {
		return
	}
	elapsed := s.clock - a.start
	node := &s.C.Nodes[a.node]
	slotECU := node.ECU / float64(node.Slots)
	burned := elapsed * slotECU
	if cpuSec, _ := s.taskDemand(job, task); burned > cpuSec {
		burned = cpuSec
	}
	s.busySlotSec += elapsed
	s.endAttempt(ti, true, reason, cost.CPUCost(a.price, burned), true, freeSlot)
}

// dropCopy takes ti's primary out of the running index, then cancels its
// speculative copy, if any, freeing the copy's slot — the first step of
// killing a primary whose task must not go on running anywhere. The
// primary goes first because the copy's kill dispatches its node, and
// the scheduler code run there must not speculate on the dying primary.
func (s *Sim) dropCopy(ti *taskInfo, reason trace.KillReason) {
	s.untrack(&ti.attempt)
	s.cancelSpeculative(int(ti.job), int(ti.idx), true, reason)
}

// LaunchSpeculative starts a duplicate copy of a running task on node n
// (which must have a free slot), reading from the best replica. It
// returns false if no running task qualifies. Hadoop launches such copies
// when slots idle near the end of a job; the first finisher wins. The
// candidate scan walks the running-attempt index (bounded by the slot
// count) rather than every task; the winner is the latest-finishing
// eligible task, ties broken by arrival order then task index — the
// first-found rule of the old full scan.
func (s *Sim) LaunchSpeculative(n cluster.NodeID) bool {
	if !s.opts.Speculative || s.nodes[n].down || s.nodes[n].free <= 0 {
		return false
	}
	best := int32(-1)
	var bestDone float64
	var bestPos, bestIdx int
	for _, ref := range s.running {
		if ref&1 == 1 {
			continue // speculative copies are not re-speculated
		}
		flat := ref >> 1
		ti := s.row(flat)
		if ti.spec >= 0 || ti.node == n {
			continue
		}
		pos, idx := s.jobs[ti.job].fifoPos, int(ti.idx)
		if best == -1 || ti.doneAt > bestDone ||
			(ti.doneAt == bestDone && (pos < bestPos || (pos == bestPos && idx < bestIdx))) {
			best, bestDone, bestPos, bestIdx = flat, ti.doneAt, pos, idx
		}
	}
	if best == -1 {
		return false
	}
	ti := s.row(best)
	bestJob, bestTask := int(ti.job), int(ti.idx)
	store := NoStore
	if s.W.Jobs[bestJob].HasInput() {
		store = s.BestReplica(bestJob, bestTask, n)
	}
	s.startAttempt(bestJob, bestTask, n, store, true)
	return true
}

// BestReplica returns the replica of the task's block closest to node n:
// node-local beats zone-local beats remote.
func (s *Sim) BestReplica(job, task int, n cluster.NodeID) cluster.StoreID {
	store, _ := s.BestReplicaRank(job, task, n)
	return store
}

// BestReplicaRank returns the closest replica and its locality rank
// (0 node-local, 1 zone-local, 2 remote).
func (s *Sim) BestReplicaRank(job, task int, n cluster.NodeID) (cluster.StoreID, int) {
	reps := s.P.Replicas(s.W.Jobs[job].Object, task)
	best := reps[0]
	bestRank := s.localityRank(n, best)
	for _, r := range reps[1:] {
		if rank := s.localityRank(n, r); rank < bestRank {
			best, bestRank = r, rank
		}
	}
	return best, bestRank
}

func (s *Sim) localityRank(n cluster.NodeID, store cluster.StoreID) int {
	switch {
	case cluster.StoreID(s.nodeStore[n]) == store:
		return 0
	case s.nodeZone[n] == s.storeZone[store]:
		return 1
	default:
		return 2
	}
}

// partialBurn prices what a Running primary has burned if it is killed
// now: the task's CPU demand less what the slot would still run before
// doneAt, clamped to the demand; burned is false when that is not
// positive, and billed is then 0.
func (s *Sim) partialBurn(job, task int) (billed cost.Money, burned bool) {
	ti := s.task(job, task)
	node := &s.C.Nodes[ti.node]
	cpuSec, _ := s.taskDemand(job, task)
	slotECU := node.ECU / float64(node.Slots)
	sec := cpuSec - (ti.doneAt-s.clock)*slotECU
	if sec > cpuSec {
		sec = cpuSec
	}
	if sec <= 0 {
		return 0, false
	}
	return cost.CPUCost(ti.price, sec), true
}

// Enqueue pins a task to node n's FIFO queue, to start no earlier than
// readyAt (e.g. after a data move completes). The task runs when a slot
// frees and readyAt passes, reading from store.
func (s *Sim) Enqueue(job, task int, n cluster.NodeID, store cluster.StoreID, readyAt float64) error {
	flat := s.flat(job, task)
	ti := s.row(flat)
	if st := s.state(flat); st != Pending {
		return fmt.Errorf("sim: task %d/%d enqueued in state %d", job, task, st)
	}
	if s.nodes[n].down {
		return fmt.Errorf("sim: task %d/%d enqueued on down node %d", job, task, n)
	}
	s.setStateFlat(job, flat, Queued)
	if js := &s.jobs[job]; js.firstEnqueue < 0 {
		js.firstEnqueue = s.clock // the job's epoch-planned span milestone
	}
	ti.qSeq++
	ti.qNode = int32(n)
	s.nodes[n].queue = append(s.nodes[n].queue, queueEntry{
		job: int32(job), task: int32(task), seq: ti.qSeq, store: store, readyAt: readyAt,
	})
	s.noteEnqueue(job, task, n, store, readyAt)
	if readyAt > s.clock {
		s.armDispatch(n, readyAt)
	}
	s.dispatch(n)
	return nil
}

// dispatch launches ready queued tasks while slots are free; if the node
// is idle once the queue settles it hands the slot to the scheduler.
// (Future-ready queue entries have dispatch wake-ups armed by Enqueue.)
func (s *Sim) dispatch(nid cluster.NodeID) {
	ns := &s.nodes[nid]
	if ns.down {
		return
	}
	s.drainQueue(nid, ns)
	if ns.free > 0 {
		s.notifySlotFree(nid)
	}
}

// drainQueue launches the node's ready queue entries in FIFO order while
// slots are free, compacting out entries consumed, stale (killed,
// unqueued or re-enqueued elsewhere — validated against the task's
// qNode/qSeq) or launched. One pass suffices: the clock does not advance
// mid-drain, so an entry's readiness cannot change, and launches enqueue
// nothing.
func (s *Sim) drainQueue(nid cluster.NodeID, ns *nodeState) {
	q := ns.queue
	if len(q) == 0 {
		return
	}
	w := 0
	for r := 0; r < len(q); r++ {
		e := q[r]
		flat := s.taskBase[e.job] + e.task
		ti := s.row(flat)
		if s.state(flat) != Queued || ti.qNode != int32(nid) || ti.qSeq != e.seq {
			continue // stale entry
		}
		if ns.free > 0 && e.readyAt <= s.clock+1e-9 {
			ti.qNode = -1
			s.setStateFlat(int(e.job), flat, Pending) // Launch re-validates
			if err := s.Launch(int(e.job), int(e.task), nid, e.store); err != nil {
				// The block moved or the task completed speculatively;
				// fall back to the best replica if still pending.
				if s.state(flat) == Pending && s.W.Jobs[e.job].HasInput() {
					_ = s.Launch(int(e.job), int(e.task), nid, s.BestReplica(int(e.job), int(e.task), nid))
				}
			}
			continue
		}
		q[w] = e
		w++
	}
	ns.queue = q[:w]
}

// MoveBlock relocates one block's primary copy from its current store to
// dst, charging the placement category and returning the completion time.
// The placement is updated when the transfer lands; callers sequencing
// tasks after the move should pass the returned time as Enqueue readyAt.
func (s *Sim) MoveBlock(obj int, block int, dst cluster.StoreID) float64 {
	j := s.W.Objects[obj]
	src := s.P.Primary(j.ID, block)
	if src == dst {
		return s.clock
	}
	mb := j.BlockSizeMB(block)
	billed := s.ssPerGB(src, dst).MulFloat(mb / 1024)
	doneAt := s.clock + mb/s.bandwidthStoreStore(src, dst)
	s.noteMove(obj, block, src, dst, mb, doneAt-s.clock, billed, trace.MovePlan)
	key := [2]int{obj, block}
	mv := s.movingBlocks[key]
	mv.moves++
	mv.dst, mv.doneAt = dst, doneAt
	s.movingBlocks[key] = mv
	s.schedule(doneAt, evLand, int32(obj), int32(block), int32(dst), 0)
	return doneAt
}

// land lands a MoveBlock transfer (evLand): the block's primary copy is
// on dst from now on.
func (s *Sim) land(obj, block int, dst cluster.StoreID) {
	s.P.SetPrimary(s.W.Objects[obj].ID, block, dst)
	key := [2]int{obj, block}
	mv := s.movingBlocks[key]
	mv.moves--
	if mv.moves <= 0 {
		delete(s.movingBlocks, key)
	} else {
		s.movingBlocks[key] = mv
	}
}

// BlockMove reports whether a MoveBlock transfer for (obj, block) is
// still in flight, and if so the destination store and landing time of
// the most recently issued move. Planners consult it to avoid racing a
// relocation that an earlier epoch already paid for.
func (s *Sim) BlockMove(obj, block int) (dst cluster.StoreID, doneAt float64, inFlight bool) {
	mv, ok := s.movingBlocks[[2]int{obj, block}]
	if !ok {
		return NoStore, 0, false
	}
	return mv.dst, mv.doneAt, true
}
