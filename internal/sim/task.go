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
	st := TaskState(s.states[flat])
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
		s.tasks[flat].qNode = -1
	}
	s.startAttempt(job, task, n, store, false)
	return nil
}

// startAttempt begins one execution attempt (primary or speculative).
func (s *Sim) startAttempt(job, task int, n cluster.NodeID, store cluster.StoreID, speculative bool) {
	flat := s.flat(job, task)
	ti := &s.tasks[flat]
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
	if speculative {
		sp := s.allocSpec(ti)
		sp.node = n
		sp.store = store
		sp.start = s.clock
		sp.cpuSec = cpuSec
		sp.wallSec = transferSec + runSec
		sp.transferEndAt = s.clock + transferSec
		sp.price = price
		sp.runPos = s.trackRunning(flat<<1 | 1)
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
		ti.node = n
		ti.store = store
		ti.attempts++
		ti.startAt = s.clock
		// Store the expected wall time itself: the completion event
		// re-bills this exact float, and (startAt+d)−startAt ≠ d in
		// floating point.
		ti.wallSec = transferSec + runSec
		ti.doneAt = s.clock + transferSec + runSec // expected finish
		ti.transferEndAt = s.clock + transferSec
		ti.price = price
		ti.runPos = s.trackRunning(flat << 1)
	}
	loc := s.observeLocality(n, store, j.HasInput())
	s.noteLaunch(job, task, int(ti.attempts), n, store, loc, speculative)

	if s.opts.SharedLinks && mb > 0 && node.Store != store {
		s.startSharedAttempt(job, task, n, store, cpuSec, mb, runSec, speculative, ti.gen)
		return
	}
	timedOut := transferSec > s.opts.TaskTimeoutSec && int(ti.attempts) <= s.opts.maxAttempts && !speculative
	if timedOut {
		// Hadoop's progress timeout: the task is killed after the
		// timeout window; the bytes moved so far are still billed. No
		// completion event is scheduled — the timeout is this attempt's
		// only future.
		s.schedule(s.clock+s.opts.TaskTimeoutSec, evTimeout, int32(job), int32(task), ti.gen, 0)
		return
	}
	if speculative {
		s.schedule(s.clock+transferSec+runSec, evComplete, int32(job), int32(task), ti.specGen, 1)
		return
	}
	s.schedule(s.clock+transferSec+runSec, evComplete, int32(job), int32(task), ti.gen, 0)
}

// timeoutEvent fires Hadoop's progress timeout on a dedicated-rate
// primary attempt (evTimeout).
func (s *Sim) timeoutEvent(job, task int, gen int32) {
	ti := s.task(job, task)
	if ti.gen != gen {
		return
	}
	movedMB := s.opts.TaskTimeoutSec * s.bandwidthStoreNode(ti.store, ti.node)
	s.timeoutKill(job, task, ti, movedMB)
}

// timeoutKill ends a primary attempt at Hadoop's progress timeout, after
// movedMB of its input crossed: it bills that partial read and the slot's
// busy time, returns the task to Pending and frees the slot.
func (s *Sim) timeoutKill(job, task int, ti *taskInfo, movedMB float64) {
	n := ti.node
	billed := s.msPerGB(n, ti.store).MulFloat(movedMB / 1024)
	s.charge(trace.KillCategory("timeout"), job, billed)
	s.busySlotSec += s.opts.TaskTimeoutSec
	s.untrackPrimary(ti)
	ti.gen++
	s.setStateFlat(job, s.flat(job, task), Pending)
	s.noteKill(job, task, n, "timeout", billed, false)
	s.slotFreed(n)
	s.dispatch(n)
}

// completeEvent finishes a dedicated-rate attempt (evComplete). The
// demand is recomputed (it is a pure function of the workload) and the
// wall time was stored at launch, so the typed event needs no closure.
func (s *Sim) completeEvent(job, task int, gen int32, speculative bool) {
	ti := s.task(job, task)
	if speculative {
		if ti.spec < 0 || ti.specGen != gen {
			return // copy cancelled or settled
		}
		cpuSec, mb := s.taskDemand(job, task)
		sp := &s.specs[ti.spec]
		s.completeAttempt(job, task, sp.node, sp.store, cpuSec, mb, sp.wallSec, true)
		return
	}
	if ti.gen != gen {
		return
	}
	cpuSec, mb := s.taskDemand(job, task)
	s.completeAttempt(job, task, ti.node, ti.store, cpuSec, mb, ti.wallSec, false)
}

// startSharedAttempt runs one attempt whose input read contends on the
// shared zone-pair link (Options.SharedLinks). The transfer becomes a
// processor-sharing flow; Hadoop's progress timeout applies to the
// transfer phase only, as in the dedicated-rate path. Flow completion
// times depend on future link membership, so this rare path keeps
// closure events; each closure re-fetches the task record and, for
// speculative copies, revalidates specGen (spec records are pooled).
func (s *Sim) startSharedAttempt(job, task int, n cluster.NodeID, store cluster.StoreID, cpuSec, mb, runSec float64, speculative bool, gen int32) {
	ti := s.task(job, task)
	start := s.clock
	if speculative {
		specGen := ti.specGen
		fl := s.net.start(s.C.Stores[store].Zone, s.C.Nodes[n].Zone, mb, func() {
			ti := s.task(job, task)
			if ti.spec < 0 || ti.specGen != specGen {
				return
			}
			sp := &s.specs[ti.spec]
			sp.flow = nil
			sp.transferEndAt = s.clock
			s.At(s.clock+runSec, func() {
				ti := s.task(job, task)
				if ti.spec < 0 || ti.specGen != specGen {
					return
				}
				s.completeAttempt(job, task, n, store, cpuSec, mb, s.clock-start, true)
			})
		})
		s.specs[ti.spec].flow = fl
		return
	}
	fl := s.net.start(s.C.Stores[store].Zone, s.C.Nodes[n].Zone, mb, func() {
		ti := s.task(job, task)
		if ti.gen != gen {
			return
		}
		ti.flow = nil
		ti.transferEndAt = s.clock
		s.At(s.clock+runSec, func() {
			if s.task(job, task).gen != gen {
				return
			}
			s.completeAttempt(job, task, n, store, cpuSec, mb, s.clock-start, false)
		})
	})
	ti.flow = fl
	ti.doneAt = start + mb/fl.rate + runSec // optimistic estimate for speculation
	if int(ti.attempts) <= s.opts.maxAttempts {
		s.At(start+s.opts.TaskTimeoutSec, func() {
			ti := s.task(job, task)
			if ti.gen != gen || ti.flow == nil {
				return // attempt superseded or transfer already finished
			}
			moved := s.net.cancel(ti.flow)
			ti.flow = nil
			s.timeoutKill(job, task, ti, moved)
		})
	}
}

// completeAttempt finishes one attempt: bills it, frees the slot, settles
// any speculative twin, and fires the completion callbacks.
func (s *Sim) completeAttempt(job, task int, n cluster.NodeID, store cluster.StoreID, cpuSec, mb, wallSec float64, speculative bool) {
	flat := s.flat(job, task)
	ti := &s.tasks[flat]
	node := &s.C.Nodes[n]

	billedCPUSec := cpuSec
	if s.opts.BillOccupancy {
		billedCPUSec = wallSec * node.ECU / float64(node.Slots)
	}
	price := ti.price
	transferEnd := ti.transferEndAt
	if speculative {
		sp := &s.specs[ti.spec]
		price = sp.price
		transferEnd = sp.transferEndAt
	}
	billed := cost.CPUCost(price, billedCPUSec)
	s.charge(cost.CatCPU, job, billed)
	var xferBilled cost.Money
	if mb > 0 {
		xferBilled = s.msPerGB(n, store).MulFloat(mb / 1024)
		s.charge(cost.CatTransfer, job, xferBilled)
		billed += xferBilled
	}
	s.NodeCPU.Add(int(n), cpuSec)
	u := &s.users[s.books[job].user]
	u.cpu += cpuSec
	u.seen = true
	s.busySlotSec += wallSec
	if speculative {
		s.untrackRunning(s.specs[ti.spec].runPos)
	} else {
		s.untrackPrimary(ti)
	}
	s.slotFreed(n)

	s.noteDone(job, task, int(ti.attempts), n, store, wallSec, transferEnd, billedCPUSec, billed, xferBilled, speculative)

	// Settle the twin attempt, if any.
	if speculative {
		// The speculative copy won; kill the primary and bill its
		// partial CPU burn as speculative waste, then release the spec
		// record. (The previous layout left the record marked running
		// after a win, so a later fault on the dead copy's node could
		// phantom-bill a completed task.)
		s.killAttempt(job, task, ti.node)
		s.freeSpec(ti)
		ti.specGen++
	} else if ti.spec >= 0 {
		s.killSpeculative(job, task)
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

// killSpeculative cancels a running speculative copy, billing the CPU it
// burned so far to the speculative-waste category.
func (s *Sim) killSpeculative(job, task int) {
	s.cancelSpeculative(job, task, true, "speculative")
}

// cancelSpeculative cancels a running speculative copy, billing its burn
// under the kill reason's category (trace.KillCategory). freeSlot is
// false when the copy's node crashed and took the slot with it.
func (s *Sim) cancelSpeculative(job, task int, freeSlot bool, reason string) {
	ti := s.task(job, task)
	if ti.spec < 0 {
		return
	}
	sp := &s.specs[ti.spec]
	if sp.flow != nil {
		// Free the link; the aborted copy's partial bytes are folded
		// into the wasted-CPU charge below.
		s.net.cancel(sp.flow)
		sp.flow = nil
	}
	n := sp.node
	elapsed := s.clock - sp.start
	node := &s.C.Nodes[n]
	slotECU := node.ECU / float64(node.Slots)
	burned := elapsed * slotECU
	if burned > sp.cpuSec {
		burned = sp.cpuSec
	}
	billed := cost.CPUCost(sp.price, burned)
	s.charge(trace.KillCategory(reason), job, billed)
	s.busySlotSec += elapsed
	s.untrackRunning(sp.runPos)
	s.freeSpec(ti)
	ti.specGen++
	s.noteKill(job, task, n, reason, billed, true)
	if freeSlot {
		s.slotFreed(n)
		s.dispatch(n)
	}
}

// killAttempt cancels the primary attempt after a speculative win.
func (s *Sim) killAttempt(job, task int, n cluster.NodeID) {
	ti := s.task(job, task)
	if fl := ti.flow; fl != nil {
		s.net.cancel(fl)
		ti.flow = nil
	}
	// We do not track the primary's start separately; bill half its
	// demand as a conservative estimate of the wasted burn.
	cpuSec, _ := s.taskDemand(job, task)
	billed := cost.CPUCost(ti.price, cpuSec/2)
	s.charge(trace.KillCategory("speculative"), job, billed)
	s.untrackPrimary(ti)
	s.noteKill(job, task, n, "speculative", billed, false)
	s.slotFreed(n)
	s.dispatch(n)
}

// untrackPrimary drops the task's primary attempt from the running index,
// idempotently: fault replay can reach an attempt through more than one
// path, and only the first removal counts.
func (s *Sim) untrackPrimary(ti *taskInfo) {
	if ti.runPos >= 0 {
		s.untrackRunning(ti.runPos)
		ti.runPos = -1
	}
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
		ti := &s.tasks[flat]
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
	ti := &s.tasks[best]
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

// partialBurn prices what a Running attempt has burned if it is killed
// now. No per-attempt start is kept, so the burn is the task's CPU demand
// less what the slot would still run before doneAt, clamped to the
// demand; burned is false when that is not positive, and billed is then 0.
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
	ti := &s.tasks[flat]
	if st := TaskState(s.states[flat]); st != Pending {
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
		ti := &s.tasks[flat]
		if TaskState(s.states[flat]) != Queued || ti.qNode != int32(nid) || ti.qSeq != e.seq {
			continue // stale entry
		}
		if ns.free > 0 && e.readyAt <= s.clock+1e-9 {
			ti.qNode = -1
			s.setStateFlat(int(e.job), flat, Pending) // Launch re-validates
			if err := s.Launch(int(e.job), int(e.task), nid, e.store); err != nil {
				// The block moved or the task completed speculatively;
				// fall back to the best replica if still pending.
				if TaskState(s.states[flat]) == Pending && s.W.Jobs[e.job].HasInput() {
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
	s.noteMove(obj, block, src, dst, mb, doneAt-s.clock, billed, "plan")
	key := [2]int{obj, block}
	mv := s.movingBlocks[key]
	mv.moves++
	mv.dst, mv.doneAt = dst, doneAt
	s.movingBlocks[key] = mv
	s.At(doneAt, func() {
		s.P.SetPrimary(j.ID, block, dst)
		mv := s.movingBlocks[key]
		mv.moves--
		if mv.moves <= 0 {
			delete(s.movingBlocks, key)
		} else {
			s.movingBlocks[key] = mv
		}
	})
	return doneAt
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
