package sim

import (
	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/trace"
)

// Lifecycle chokepoints: every noteX helper feeds both the structured
// trace (guarded by s.tr != nil) and the live metrics, through the
// obs.SimMetrics observer that obs.TraceSink calls for the same event
// (guarded by s.om != nil). With both disabled each call site costs two
// nil checks and allocates nothing (TestNoObsNoAllocs).
// Event payloads, and the arithmetic only they need, are built once the
// trace guard passes.

// Tracer returns the run's tracer (nil when tracing is disabled),
// for schedulers that emit their own spans (e.g. LiPS epoch solves).
func (s *Sim) Tracer() trace.Tracer { return s.tr }

// noteRun opens the run in the event stream with the cluster and
// workload shape, so trace tools can interpret node ids without the
// cluster object.
func (s *Sim) noteRun() {
	if s.tr == nil {
		return
	}
	slots := make([]int, len(s.C.Nodes))
	types := make([]string, len(s.C.Nodes))
	zones := make([]string, len(s.C.Nodes))
	for i, n := range s.C.Nodes {
		slots[i] = n.Slots
		types[i] = n.Type
		zones[i] = string(n.Zone)
	}
	names := make([]string, len(s.W.Jobs))
	users := make([]string, len(s.W.Jobs))
	for i := range s.W.Jobs {
		names[i] = s.W.Jobs[i].Name
		users[i] = s.W.Jobs[i].User
	}
	s.tr.Emit(trace.Event{T: s.clock, Kind: trace.KindRun, Run: &trace.RunInfo{
		Scheduler: s.sched.Name(),
		Nodes:     len(s.C.Nodes), Stores: len(s.C.Stores),
		Jobs: len(s.W.Jobs), Tasks: s.W.TotalTasks(),
		Slots: slots, Types: types, Zones: zones,
		Label:    s.opts.TraceLabel,
		JobNames: names, JobUsers: users,
	}})
}

func (s *Sim) noteEnqueue(job, task int, n cluster.NodeID, store cluster.StoreID, readyAt float64) {
	if s.om != nil {
		s.om.Enqueue()
	}
	if s.tr == nil {
		return
	}
	s.tr.Emit(trace.Event{T: s.clock, Kind: trace.KindEnqueue, Task: &trace.TaskInfo{
		Job: job, Task: task, Node: int(n), Store: int(store), ReadyAt: readyAt,
	}})
}

func (s *Sim) noteLaunch(job, task, attempt int, n cluster.NodeID, store cluster.StoreID, loc Locality, speculative bool) {
	if s.om != nil {
		s.om.LaunchAt(int(loc)) // Localities is in Locality order
	}
	if s.tr == nil {
		return
	}
	s.tr.Emit(trace.Event{T: s.clock, Kind: trace.KindLaunch, Task: &trace.TaskInfo{
		Job: job, Task: task, Attempt: attempt, Node: int(n), Store: int(store),
		Locality: loc.String(), Speculative: speculative,
	}})
}

// noteDone records a completed attempt that ran wallSec and finished
// its input transfer at transferEnd.
func (s *Sim) noteDone(job, task, attempt int, n cluster.NodeID, store cluster.StoreID,
	wallSec, transferEnd, cpuSec float64, billed, xferBilled cost.Money, speculative bool) {
	if s.om != nil {
		s.om.Done()
	}
	if s.tr == nil {
		return
	}
	xferSec := transferEnd - (s.clock - wallSec)
	if xferSec < 0 {
		xferSec = 0
	} else if xferSec > wallSec {
		xferSec = wallSec
	}
	s.tr.Emit(trace.Event{T: s.clock, Kind: trace.KindDone, Task: &trace.TaskInfo{
		Job: job, Task: task, Attempt: attempt, Node: int(n), Store: int(store),
		DurSec: wallSec, XferSec: xferSec, CPUSec: cpuSec,
		CostUC: int64(billed), XferUC: int64(xferBilled), Speculative: speculative,
	}})
}

func (s *Sim) noteKill(job, task int, n cluster.NodeID, reason string, billed cost.Money, speculative bool) {
	if s.om != nil {
		s.om.Kill(reason)
	}
	if s.tr == nil {
		return
	}
	s.tr.Emit(trace.Event{T: s.clock, Kind: trace.KindKill, Task: &trace.TaskInfo{
		Job: job, Task: task, Node: int(n), Store: -1,
		Reason: reason, CostUC: int64(billed), Speculative: speculative,
	}})
}

// noteMove books a block move's bill under its reason's category
// (trace.MoveCategory) to no job, and records the move.
func (s *Sim) noteMove(obj, block int, src, dst cluster.StoreID, mb, durSec float64, billed cost.Money, reason string) {
	s.charge(trace.MoveCategory(reason), -1, billed)
	if s.om != nil {
		s.om.Move(reason, mb)
	}
	if s.tr == nil {
		return
	}
	s.tr.Emit(trace.Event{T: s.clock, Kind: trace.KindMove, Move: &trace.MoveInfo{
		Object: obj, Block: block, Src: int(src), Dst: int(dst),
		MB: mb, DurSec: durSec, CostUC: int64(billed), Reason: reason,
	}})
}

func (s *Sim) noteFault(f Fault) {
	if s.om != nil {
		s.om.Fault(f.Kind.String())
	}
	if s.tr == nil {
		return
	}
	node, store := -1, -1
	switch f.Kind {
	case FaultStoreLoss:
		store = int(f.Store)
	default:
		node = int(f.Node)
	}
	s.tr.Emit(trace.Event{T: s.clock, Kind: trace.KindFault, Fault: &trace.FaultInfo{
		Kind: f.Kind.String(), Node: node, Store: store,
		Factor: f.Factor, DurationSec: f.DurationSec,
	}})
}

// scanSample fills the task-state counts, slot availability and busy
// slot-seconds of one snapshot — shared by trace sample events and the
// live gauge refresh so both report identical numbers at matching
// timestamps. The numbers come from the incrementally maintained
// counters (O(1)), which verifyIndexes (scale_test.go) pins to a recount
// of every task and node.
func (s *Sim) scanSample(info *trace.SampleInfo) {
	info.Pending, info.Queued, info.Running, info.Done = s.StateCounts()
	info.FreeSlots = s.freeSlots
	info.LiveSlots = s.liveSlots
	info.BusySlotSec = s.busySlotSec
}

// emitSample snapshots the run's time series: cumulative dollars by
// ledger category, task-state counts, slot availability and the
// locality mix so far.
func (s *Sim) emitSample() {
	if s.tr == nil {
		return
	}
	info := &trace.SampleInfo{
		TotalUC:       int64(s.Ledger.Total()),
		CPUUC:         int64(s.Ledger.Category(cost.CatCPU)),
		TransferUC:    int64(s.Ledger.Category(cost.CatTransfer)),
		PlacementUC:   int64(s.Ledger.Category(cost.CatPlacement)),
		SpeculativeUC: int64(s.Ledger.Category(cost.CatSpeculative)),
		FaultUC:       int64(s.Ledger.Category(cost.CatFault)),
		NodeLocal:     s.Locality.Count(NodeLocal),
		ZoneLocal:     s.Locality.Count(ZoneLocal),
		Remote:        s.Locality.Count(Remote),
		NoInput:       s.Locality.Count(NoInput),
	}
	// Ledger.Tenants is sorted, so the chargeback lines (and the JSONL
	// bytes) are deterministic for a given seed.
	for _, tn := range s.Ledger.Tenants() {
		info.Tenants = append(info.Tenants, trace.TenantCost{
			Tenant:        tn,
			TotalUC:       int64(s.Ledger.TenantTotal(tn)),
			CPUUC:         int64(s.Ledger.TenantCategory(tn, cost.CatCPU)),
			TransferUC:    int64(s.Ledger.TenantCategory(tn, cost.CatTransfer)),
			PlacementUC:   int64(s.Ledger.TenantCategory(tn, cost.CatPlacement)),
			SpeculativeUC: int64(s.Ledger.TenantCategory(tn, cost.CatSpeculative)),
			FaultUC:       int64(s.Ledger.TenantCategory(tn, cost.CatFault)),
		})
	}
	s.scanSample(info)
	if s.om != nil {
		s.om.Sample(s.clock, info)
	}
	s.tr.Emit(trace.Event{T: s.clock, Kind: trace.KindSample, Sample: info})
}

// NoteMoves reports a batch of block moves made outside a run — the HDFS
// balancer's, before scheduling starts — at simulated time t: to tr as
// move events and to reg's simulator families through the observer the
// trace replay calls for those events. A nil tr or reg is skipped. The
// moves bill nothing: the commands that make them print the bill.
func NoteMoves(tr trace.Tracer, reg *obs.Registry, t float64, p *hdfs.Placement, moves []hdfs.BalanceMove, reason string) {
	var om *obs.SimMetrics
	if reg != nil {
		om = obs.RegisterSim(reg)
	}
	for _, mv := range moves {
		mb := p.Object(mv.Object).BlockSizeMB(mv.Block)
		if om != nil {
			om.Move(reason, mb)
		}
		if tr != nil {
			tr.Emit(trace.Event{T: t, Kind: trace.KindMove, Move: &trace.MoveInfo{
				Object: int(mv.Object), Block: mv.Block,
				Src: int(mv.From), Dst: int(mv.To), MB: mb, Reason: reason,
			}})
		}
	}
}
