package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/trace"
)

// Fault injection. A FaultPlan is a deterministic script of node crashes,
// node recoveries, store data losses and straggler slowdowns replayed
// through the ordinary event heap, so a faulty run is exactly as
// reproducible as a calm one. The simulator absorbs each fault itself —
// killing attempts, draining queues, re-replicating blocks — and then
// notifies the scheduler through the OnNodeDown/OnNodeUp hooks; greedy
// schedulers recover through their slot-free paths while epoch planners
// rebuild their cluster view. The damage is priced into the ledger's
// fault category and counted in Result.Faults.

// FaultKind labels one injected fault.
type FaultKind int

// Fault kinds, in trace.FaultKinds order.
const (
	FaultNodeDown  FaultKind = iota // node crashes: attempts killed, queue drained, slots gone
	FaultNodeUp                     // node rejoins with all slots free
	FaultStoreLoss                  // store loses its data (the device stays in service)
	FaultSlowdown                   // straggler: attempts started on the node run slower for a window
)

// String names the kind (trace.FaultKinds).
func (k FaultKind) String() string {
	if k < 0 || int(k) >= len(trace.FaultKinds) {
		return fmt.Sprintf("fault(%d)", int(k))
	}
	return trace.FaultKinds[k]
}

// Fault is one scripted event.
type Fault struct {
	At   float64
	Kind FaultKind

	// Node is the target of NodeDown, NodeUp and Slowdown faults.
	Node cluster.NodeID
	// Store is the target of StoreLoss faults.
	Store cluster.StoreID

	// Factor is the Slowdown runtime multiplier (>1 is slower); it applies
	// to attempts started on the node while the window is open, not to
	// attempts already running.
	Factor float64
	// DurationSec is the Slowdown window length.
	DurationSec float64
}

// FaultPlan is a script of faults injected into one run via
// Options.Faults. Order within the slice is irrelevant; events fire in
// time order through the event heap.
type FaultPlan struct {
	Faults []Fault
}

// validate rejects plans referencing nodes or stores outside the cluster.
func (p *FaultPlan) validate(c *cluster.Cluster) error {
	for i, f := range p.Faults {
		switch f.Kind {
		case FaultNodeDown, FaultNodeUp, FaultSlowdown:
			if f.Node < 0 || int(f.Node) >= len(c.Nodes) {
				return fmt.Errorf("sim: fault %d (%s) targets node %d of %d", i, f.Kind, f.Node, len(c.Nodes))
			}
		case FaultStoreLoss:
			if f.Store < 0 || int(f.Store) >= len(c.Stores) {
				return fmt.Errorf("sim: fault %d (%s) targets store %d of %d", i, f.Kind, f.Store, len(c.Stores))
			}
		default:
			return fmt.Errorf("sim: fault %d has unknown kind %d", i, int(f.Kind))
		}
		if f.At < 0 {
			return fmt.Errorf("sim: fault %d fires at t=%g", i, f.At)
		}
		if f.Kind == FaultSlowdown && (f.Factor < 1 || f.DurationSec <= 0) {
			return fmt.Errorf("sim: fault %d slowdown needs factor>=1 and duration>0, got %g/%g", i, f.Factor, f.DurationSec)
		}
	}
	return nil
}

// FaultSpec sizes a RandomFaultPlan.
type FaultSpec struct {
	// Crashes is the number of node crash+recovery pairs.
	Crashes int
	// StoreLosses is the number of store data-loss events.
	StoreLosses int
	// Slowdowns is the number of straggler windows.
	Slowdowns int
	// WindowSec bounds fault injection times, drawn uniformly from
	// [0, WindowSec). 0 means 1000.
	WindowSec float64
	// DowntimeSec separates each crash from its recovery. 0 means 300.
	DowntimeSec float64
}

// A random straggler window runs every task started on its node slowFactor
// times slower for slowDurationSec.
const (
	slowFactor      = 3
	slowDurationSec = 600
)

func (spec FaultSpec) withDefaults() FaultSpec {
	if spec.WindowSec == 0 {
		spec.WindowSec = 1000
	}
	if spec.DowntimeSec == 0 {
		spec.DowntimeSec = 300
	}
	return spec
}

// RandomFaultPlan draws a seed-deterministic plan over the cluster: each
// crash is paired with a recovery DowntimeSec later, store losses and
// slowdowns land uniformly in the window. The same seed, cluster shape
// and spec always produce the same plan.
func RandomFaultPlan(seed int64, c *cluster.Cluster, spec FaultSpec) *FaultPlan {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	var fs []Fault
	for i := 0; i < spec.Crashes && len(c.Nodes) > 0; i++ {
		n := cluster.NodeID(rng.Intn(len(c.Nodes)))
		at := rng.Float64() * spec.WindowSec
		fs = append(fs,
			Fault{At: at, Kind: FaultNodeDown, Node: n},
			Fault{At: at + spec.DowntimeSec, Kind: FaultNodeUp, Node: n})
	}
	for i := 0; i < spec.StoreLosses && len(c.Stores) > 0; i++ {
		fs = append(fs, Fault{
			At: rng.Float64() * spec.WindowSec, Kind: FaultStoreLoss,
			Store: cluster.StoreID(rng.Intn(len(c.Stores))),
		})
	}
	for i := 0; i < spec.Slowdowns && len(c.Nodes) > 0; i++ {
		fs = append(fs, Fault{
			At: rng.Float64() * spec.WindowSec, Kind: FaultSlowdown,
			Node:   cluster.NodeID(rng.Intn(len(c.Nodes))),
			Factor: slowFactor, DurationSec: slowDurationSec,
		})
	}
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].At < fs[j].At })
	return &FaultPlan{Faults: fs}
}

// inject dispatches one fault at its scheduled time.
func (s *Sim) inject(f Fault) {
	s.noteFault(f)
	switch f.Kind {
	case FaultNodeDown:
		s.crashNode(f.Node)
	case FaultNodeUp:
		s.recoverNode(f.Node)
	case FaultStoreLoss:
		s.loseStore(f.Store)
	case FaultSlowdown:
		s.slowNode(f.Node, f.Factor, f.DurationSec)
	}
}

// NodeAlive reports whether node n is currently up.
func (s *Sim) NodeAlive(n cluster.NodeID) bool { return !s.nodes[n].down }

// NodesDown reports how many nodes are currently down.
func (s *Sim) NodesDown() int { return s.downNodes }

// crashNode takes a node down: every attempt running on it (primary or
// speculative) is killed, its pinned queue drains back to Pending, its
// slots vanish, and the scheduler is told via OnNodeDown. Partially
// executed work is billed to the fault category — a crash does not refund
// the cycles it wasted. The victims come from the running-attempt index
// (bounded by the slot count) and are visited in ascending task order with
// every condition re-checked at apply time — the sequence a scan of the
// whole task table would kill in (testdata/dispatch.golden pins it).
func (s *Sim) crashNode(n cluster.NodeID) {
	ns := &s.nodes[n]
	if ns.down {
		return
	}
	ns.down = true
	s.downNodes++
	s.freeSlots -= ns.free
	s.liveSlots -= s.C.Nodes[n].Slots
	ns.free = 0
	s.clearIdle(n)
	s.Faults.NodesCrashed++

	for _, f := range s.runningHits(func(a *attempt) bool { return a.node == n }) {
		s.crashHit(f, n)
	}
	// Drain the pinned queue: those tasks were promised this node's slots.
	for _, e := range ns.queue {
		flat := s.taskBase[e.job] + e.task
		ti := s.row(flat)
		if s.state(flat) != Queued || ti.qNode != int32(n) || ti.qSeq != e.seq {
			continue // stale entry
		}
		ti.qNode = -1
		s.setStateFlat(int(e.job), flat, Pending)
	}
	ns.queue = ns.queue[:0]

	s.sched.OnNodeDown(s, n)
	s.KickIdleNodes()
}

// crashHit kills whatever task flat is running on the crashed node n.
func (s *Sim) crashHit(flat int32, n cluster.NodeID) {
	ti := s.row(flat)
	j, t := int(ti.job), int(ti.idx)
	if c := s.attemptOf(ti, true); c != nil && c.node == n {
		s.cancelSpeculative(j, t, false, trace.KillNodeCrash)
	}
	if s.state(flat) == Running && ti.node == n {
		// The surviving speculative copy could in principle be promoted;
		// Hadoop instead re-runs the task, and so do we — both copies
		// die with the primary's node.
		s.dropCopy(ti, trace.KillNodeCrash)
		s.failAttempt(j, t, false, trace.KillNodeCrash)
	}
}

// recoverNode brings a crashed node back with every slot free.
func (s *Sim) recoverNode(n cluster.NodeID) {
	ns := &s.nodes[n]
	if !ns.down {
		return
	}
	ns.down = false
	s.downNodes--
	slots := s.C.Nodes[n].Slots
	ns.free = slots
	s.freeSlots += slots
	s.liveSlots += slots
	if slots > 0 {
		s.markIdle(n)
	}
	s.Faults.NodesRecovered++
	s.sched.OnNodeUp(s, n)
	s.dispatch(n)
}

// failAttempt kills the primary attempt of a Running task after a fault,
// billing the CPU it burned to the fault category and returning the task
// to Pending for re-execution. freeSlot is false when the slot died with
// its node; reason labels the kill in the trace.
func (s *Sim) failAttempt(job, task int, freeSlot bool, reason trace.KillReason) {
	billed, burned := s.partialBurn(job, task)
	s.setStateFlat(job, s.flat(job, task), Pending)
	s.Faults.TasksReexecuted++
	s.endAttempt(s.task(job, task), false, reason, billed, burned, freeSlot)
}

// loseStore wipes a store's data: every replica on it disappears (the
// device itself stays in service). Under-replicated blocks get a fresh
// copy on the cheapest store not already holding them; blocks that lost
// their only copy are re-materialized on a fallback store (modeling
// upstream re-generation). Both repairs are priced as store-to-store
// traffic in the fault category. Attempts still transferring input from
// the store are killed and re-executed.
func (s *Sim) loseStore(st cluster.StoreID) {
	s.Faults.StoresLost++
	under, lost := s.P.DropStore(st)
	for _, br := range under {
		src := s.P.Primary(br.Object, br.Block)
		dst := s.replicaTarget(br.Object, br.Block, st)
		if dst == cluster.None {
			continue // every store already holds a copy
		}
		s.P.AddReplica(br.Object, br.Block, dst)
		mb := s.P.Object(br.Object).BlockSizeMB(br.Block)
		billed := s.ssPerGB(src, dst).MulFloat(mb / 1024)
		s.Faults.BlocksReplicated++
		s.noteMove(int(br.Object), br.Block, src, dst, mb, 0, billed, trace.MoveReReplicate)
	}
	for _, br := range lost {
		obj := s.P.Object(br.Object)
		dst := obj.Origin
		if dst == st {
			dst = s.fallbackStore(st)
		}
		if dst == cluster.None {
			continue // single-store cluster: nowhere to recreate it
		}
		s.P.SetPrimary(br.Object, br.Block, dst)
		mb := obj.BlockSizeMB(br.Block)
		billed := s.ssPerGB(st, dst).MulFloat(mb / 1024)
		s.Faults.BlocksLost++
		s.Faults.BlocksReplicated++
		s.noteMove(int(br.Object), br.Block, st, dst, mb, 0, billed, trace.MoveReMaterialize)
	}
	// Kill attempts whose input read from the lost store is still in
	// progress; attempts past their transfer phase already hold the data.
	// As in crashNode, victims come from the running-attempt index in
	// ascending task order; the store replicas were dropped above, so no
	// freed slot launched mid-loop can start a new read from st and escape
	// the pre-collected list.
	for _, f := range s.runningHits(func(a *attempt) bool { return a.store == st }) {
		s.storeLossHit(f, st)
	}
}

// storeLossHit kills whatever attempt of task flat still reads store st.
func (s *Sim) storeLossHit(flat int32, st cluster.StoreID) {
	ti := s.row(flat)
	j, t := int(ti.job), int(ti.idx)
	if c := s.attemptOf(ti, true); c != nil && c.store == st && s.inTransfer(c) {
		s.cancelSpeculative(j, t, true, trace.KillStoreLoss)
	}
	if s.state(flat) == Running && ti.store == st && s.inTransfer(&ti.attempt) {
		s.failAttempt(j, t, true, trace.KillStoreLoss)
	}
}

// inTransfer reports whether an attempt's input read is unfinished.
func (s *Sim) inTransfer(a *attempt) bool {
	return a.flow != 0 || s.clock < a.transferEndAt-1e-9
}

// replicaTarget picks the cheapest-to-reach store (from the block's
// current primary) that holds no copy of the block, excluding the store
// that just lost its data. Ties break toward the lowest store ID.
func (s *Sim) replicaTarget(obj hdfs.ObjectID, block int, exclude cluster.StoreID) cluster.StoreID {
	src := s.P.Primary(obj, block)
	best := cluster.StoreID(cluster.None)
	var bestCost cost.Money
	for _, cand := range s.C.Stores {
		if cand.ID == exclude || s.P.HasReplicaOn(obj, block, cand.ID) {
			continue
		}
		c := s.ssPerGB(src, cand.ID)
		if best == cluster.None || c < bestCost {
			best, bestCost = cand.ID, c
		}
	}
	return best
}

// fallbackStore is the lowest-ID store other than the excluded one.
func (s *Sim) fallbackStore(exclude cluster.StoreID) cluster.StoreID {
	for _, st := range s.C.Stores {
		if st.ID != exclude {
			return st.ID
		}
	}
	return cluster.None
}

// slowNode opens a straggler window on a node: attempts started on it
// while the window is open run Factor times slower. Attempts already
// running are unaffected (their completion events are scheduled).
func (s *Sim) slowNode(n cluster.NodeID, factor, durationSec float64) {
	if factor < 1 {
		factor = 1
	}
	ns := &s.nodes[n]
	ns.slowFactor = factor
	ns.slowUntil = s.clock + durationSec
	s.Faults.Slowdowns++
}

// slowdownOf returns the runtime multiplier for attempts starting on n now.
func (s *Sim) slowdownOf(n cluster.NodeID) float64 {
	ns := &s.nodes[n]
	if ns.slowFactor > 1 && s.clock < ns.slowUntil {
		return ns.slowFactor
	}
	return 1
}

// FaultStats counts what fault injection did to a run: the injected
// events themselves (crashes, recoveries, store losses, slowdowns) and
// the damage the cluster absorbed (attempts killed and re-executed,
// blocks re-replicated or lost outright). The dollar side of the same
// story lives in the ledger's fault category.
type FaultStats struct {
	NodesCrashed   int // node-down events injected
	NodesRecovered int // node-up events injected
	StoresLost     int // store data-loss events injected
	Slowdowns      int // straggler slowdown windows injected

	TasksReexecuted  int // running attempts killed by a crash or store loss
	BlocksReplicated int // replica copies created to replace lost ones
	BlocksLost       int // blocks whose every replica was lost (re-materialized)
}

// Any reports whether any fault was injected or absorbed. The damage
// counters matter on their own: a store loss replayed against a cheap
// placement can re-execute tasks and re-replicate blocks even when the
// injection counters alone would look quiet to a caller that only
// checks one side.
func (fs FaultStats) Any() bool {
	return fs.NodesCrashed+fs.NodesRecovered+fs.StoresLost+fs.Slowdowns+
		fs.TasksReexecuted+fs.BlocksReplicated+fs.BlocksLost > 0
}

// String summarises the stats on one line.
func (fs FaultStats) String() string {
	return fmt.Sprintf("%d crashes, %d recoveries, %d store losses, %d slowdowns; %d tasks re-executed, %d blocks re-replicated (%d lost outright)",
		fs.NodesCrashed, fs.NodesRecovered, fs.StoresLost, fs.Slowdowns,
		fs.TasksReexecuted, fs.BlocksReplicated, fs.BlocksLost)
}
