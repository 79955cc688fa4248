package sim

// Incremental indexes over simulator state. The event loop must not scan
// s.nodes or the task table per event at 10k-node/1M-task scale, and a
// slot scheduler must not rescan every arrived job's tasks per decision,
// so the hot paths maintain five structures as they go:
//
//   - an idle-node bitset (bit n set ⇔ node n is live with ≥1 free slot)
//     plus free- and live-slot totals, updated by slotTaken and
//     slotFreed — KickIdleNodes sweeps set bits instead of every node,
//     and the sample scan reads two integers;
//   - a running-attempt index s.running: one packed ref (flat<<1|specBit)
//     per in-flight attempt, with O(1) swap-remove via the position each
//     attempt record stores — fault replay filters ~totalSlots refs
//     instead of scanning every task;
//   - per-state task counters (stateCount, corrected by unarrived for
//     not-yet-arrived jobs) maintained by setStateFlat;
//   - a job index: the arrived, incomplete jobs as an intrusive doubly
//     linked list in arrival order (actHead/actTail, jobState.prev/next),
//     linked by arrive and unlinked where a job's remaining count drops
//     to zero (completeAttempt, CancelJob); plus, per job, its tasks'
//     state counts and a cursor below which none is Pending, both kept
//     by setStateFlat. Removal must be O(1): jobs finish in any order,
//     and an order-preserving slice delete costs a memmove of every
//     younger job per completion. ArrivedJobs and NextArrived walk the
//     list, JobStateCounts reads the counts, and PendingTasks and
//     NextPending start at the cursor and return at once when the job
//     has nothing pending;
//   - a locality index per job (locality.go): its tasks grouped by the
//     stores and zones holding their blocks, built from the placement
//     when a slot scheduler indexes an arriving job, rebuilt when the
//     object's placement generation moves, and dropped by unlinkActive.
//     BestLocalityTask walks it from the cursor instead of probing
//     every pending task's replicas. Launches leave their entries in
//     place, so setStateFlat does no work for it.
//
// Invariants (pinned by TestSlotIndexProperty against recomputed-from-
// scratch copies):
//
//	idle bit n      ⇔ !nodes[n].down && nodes[n].free > 0
//	freeSlots       = Σ nodes[n].free over live nodes
//	liveSlots       = Σ C.Nodes[n].Slots over live nodes
//	downNodes       = #nodes with nodes[n].down
//	running         = exactly one ref per Running primary (flat<<1) and
//	                  one per live speculative copy (flat<<1|1), each at
//	                  the runPos of its attemptOf record
//	stateCount[st]  = #tasks in state st (all jobs); unarrived = #tasks
//	                  of not-yet-arrived jobs, which are always Pending
//	active list     = arrived jobs in fifoPos order, filtered by
//	                  jobs[j].remaining > 0; nActive is its length,
//	                  jobs[j].active marks its members
//	jobs[j].counts  = #tasks of job j in each state
//	jobs[j].cursor  ≤ every Pending task index of job j
//	locs[j]         = nil unless jobs[j].active; while its gen equals
//	                  the object's placement generation, its lists are
//	                  the placement's (store, task) and (zone, task)
//	                  pairs, so each Pending task of job j is in the list
//	                  of every store and zone holding its block
//
// The full scans these replaced survive in verifyIndexes (scale_test.go),
// which recounts every index at every scheduler callback, in
// bestLocalityScan (locality_test.go), and in the
// testdata/dispatch.golden files of this package and of sched, the traces
// the scans produced.

import (
	"math/bits"
	"slices"

	"lips/internal/cluster"
)

// markIdle and clearIdle maintain the idle-node bitset.
func (s *Sim) markIdle(n cluster.NodeID)  { s.idle[n>>6] |= 1 << (uint(n) & 63) }
func (s *Sim) clearIdle(n cluster.NodeID) { s.idle[n>>6] &^= 1 << (uint(n) & 63) }

// slotTaken consumes one free slot on a live node.
func (s *Sim) slotTaken(n cluster.NodeID) {
	ns := &s.nodes[n]
	ns.free--
	s.freeSlots--
	if ns.free == 0 {
		s.clearIdle(n)
	}
}

// slotFreed releases one slot. Attempts only finish on live nodes (a
// crash voids their events via the generation counter), so the node is
// never down here; the guard keeps the bitset honest even if it were.
func (s *Sim) slotFreed(n cluster.NodeID) {
	ns := &s.nodes[n]
	ns.free++
	s.freeSlots++
	if ns.free == 1 && !ns.down {
		s.markIdle(n)
	}
}

// trackRunning registers an attempt ref (flat<<1 | specBit) and returns
// its position, which the attempt's record stores for untrack.
func (s *Sim) trackRunning(ref int32) int32 {
	pos := int32(len(s.running))
	s.running = append(s.running, ref)
	return pos
}

// untrack drops an attempt from the running index, idempotently: fault
// replay can reach an attempt through more than one path, and only the
// first removal counts. The ref that moves into its place has its stored
// position fixed up.
func (s *Sim) untrack(a *attempt) {
	if a.runPos < 0 {
		return
	}
	last := int32(len(s.running)) - 1
	if moved := s.running[last]; a.runPos != last {
		s.running[a.runPos] = moved
		s.attemptOf(s.row(moved>>1), moved&1 == 1).runPos = a.runPos
	}
	s.running = s.running[:last]
	a.runPos = -1
}

// setStateFlat transitions task flat of job to st, keeping the run's and
// the job's per-state counters exact and lowering the job's cursor when
// a task re-pends below it. Every state change in the simulator goes
// through here.
func (s *Sim) setStateFlat(job int, flat int32, st TaskState) {
	js := &s.jobs[job]
	cell := &s.states[flat>>pageShift][flat&pageMask]
	old := *cell
	s.stateCount[old]--
	js.counts[old]--
	*cell = uint8(st)
	s.stateCount[st]++
	js.counts[st]++
	if st == Pending {
		if t := flat - s.taskBase[job]; t < js.cursor {
			js.cursor = t
		}
	}
}

// linkActive appends an arrived job to the tail of the active list.
func (s *Sim) linkActive(job int) {
	js := &s.jobs[job]
	js.active = true
	js.prev, js.next = s.actTail, -1
	if s.actTail >= 0 {
		s.jobs[s.actTail].next = int32(job)
	} else {
		s.actHead = int32(job)
	}
	s.actTail = int32(job)
	s.nActive++
}

// unlinkActive removes a job from the active list in O(1) and drops its
// locality index; the list is left alone for a job that never arrived.
func (s *Sim) unlinkActive(job int) {
	if job < len(s.locs) {
		s.locs[job] = nil
	}
	js := &s.jobs[job]
	if !js.active {
		return
	}
	if js.prev >= 0 {
		s.jobs[js.prev].next = js.next
	} else {
		s.actHead = js.next
	}
	if js.next >= 0 {
		s.jobs[js.next].prev = js.prev
	} else {
		s.actTail = js.prev
	}
	js.active = false
	js.prev, js.next = -1, -1
	s.nActive--
}

// allocSpec takes a record for ti's speculative copy from the free-list
// (or grows the pool) and attaches it to ti; the caller fills it in. The
// returned pointer is invalidated by the next allocSpec — do not hold it
// across one.
func (s *Sim) allocSpec(ti *taskInfo) *attempt {
	if n := len(s.specFree); n > 0 {
		ti.spec = s.specFree[n-1]
		s.specFree = s.specFree[:n-1]
	} else {
		ti.spec = int32(len(s.specs))
		s.specs = append(s.specs, attempt{})
	}
	return s.attemptOf(ti, true)
}

// freeSpec returns ti's speculative record to the free-list.
func (s *Sim) freeSpec(ti *taskInfo) {
	s.specFree = append(s.specFree, ti.spec)
	ti.spec = -1
}

// runningHits collects the flat indices of tasks with a running attempt
// (primary or speculative) that hit reports true for, deduplicated and
// sorted ascending — the order a scan of the task table visits them in,
// which fault replay follows so traces stay byte-identical with
// testdata/dispatch.golden. The slice is scratch, valid until the next
// collection.
func (s *Sim) runningHits(hit func(*attempt) bool) []int32 {
	hits := s.hitBuf[:0]
	for _, ref := range s.running {
		if hit(s.attemptOf(s.row(ref>>1), ref&1 == 1)) {
			hits = append(hits, ref>>1)
		}
	}
	s.hitBuf = hits
	slices.Sort(hits)
	return slices.Compact(hits)
}

// IdleNodes appends every live node with at least one free slot to buf in
// ascending node order and returns the extended slice. Allocation-free
// when buf has capacity.
func (s *Sim) IdleNodes(buf []cluster.NodeID) []cluster.NodeID {
	for wi, word := range s.idle {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			buf = append(buf, cluster.NodeID(wi<<6+b))
		}
	}
	return buf
}

// StateCounts returns how many tasks of arrived jobs are in each state,
// in O(1) — the counters behind the periodic sample scan.
func (s *Sim) StateCounts() (pending, queued, running, done int) {
	return s.stateCount[Pending] - s.unarrived, s.stateCount[Queued],
		s.stateCount[Running], s.stateCount[Done]
}

// JobArrived reports whether a job has been submitted yet.
func (s *Sim) JobArrived(job int) bool { return s.jobs[job].arrived }
