// Package trace is the structured run-tracing layer of the simulator: a
// Tracer interface threaded through the scheduling hot paths, a typed
// event model covering task lifecycles, epoch LP solves, block moves,
// fault injections and periodic time-series samples, and three sinks —
// a JSONL structured log, a Chrome trace-event (Perfetto-loadable)
// exporter, and an in-memory time-series Sampler with CSV output — plus
// the money table (charges.go) that says under which ledger category and
// tenant each event's charge is booked.
//
// Tracing is off by default: a nil Tracer. The disabled path is a single
// nil check at each call site and allocates nothing (guarded by
// sim.TestNoObsNoAllocs). Traces contain only simulated-time and
// count-valued fields unless the producer opts into wall-clock timings,
// so two runs with the same seed produce byte-identical JSONL output.
package trace

import (
	"fmt"
	"math"
)

// Kind labels one trace event. Kinds are stable strings: they are the
// JSONL schema's discriminator and the contract of cmd/lips-trace.
type Kind string

// Event kinds.
const (
	KindRun     Kind = "run"     // run metadata: scheduler, cluster and workload shape
	KindEnqueue Kind = "enqueue" // task pinned to a node's queue
	KindLaunch  Kind = "launch"  // attempt started on a node
	KindDone    Kind = "done"    // attempt completed (task finished)
	KindKill    Kind = "kill"    // attempt cancelled (timeout, speculation, job cancel, fault)
	KindEpoch   Kind = "epoch"   // one epoch LP solve of an epoch scheduler
	KindMove    Kind = "move"    // block relocation (planned, balancer or fault repair)
	KindFault   Kind = "fault"   // injected fault event
	KindSample  Kind = "sample"  // periodic time-series snapshot
)

// Event is one trace record. T is the simulated time in seconds; exactly
// one of the payload pointers matching Kind is set.
type Event struct {
	T    float64 `json:"t"`
	Kind Kind    `json:"kind"`

	Run    *RunInfo    `json:"run,omitempty"`
	Task   *TaskInfo   `json:"task,omitempty"`
	Epoch  *EpochInfo  `json:"epoch,omitempty"`
	Move   *MoveInfo   `json:"move,omitempty"`
	Fault  *FaultInfo  `json:"fault,omitempty"`
	Sample *SampleInfo `json:"sample,omitempty"`
}

// RunInfo opens one simulation run in the event stream; sinks use it as
// a run boundary (the Chrome exporter starts a new process group).
type RunInfo struct {
	Scheduler string `json:"scheduler"`
	Nodes     int    `json:"nodes"`
	Stores    int    `json:"stores"`
	Jobs      int    `json:"jobs"`
	Tasks     int    `json:"tasks"`
	// Slots, Types and Zones describe each node (index = node id), so
	// tools can compute per-node utilization without the cluster object.
	Slots []int    `json:"slots,omitempty"`
	Types []string `json:"types,omitempty"`
	Zones []string `json:"zones,omitempty"`
	// Label distinguishes runs in multi-run traces (e.g. the experiment
	// name when lips-bench traces a whole suite).
	Label string `json:"label,omitempty"`
	// JobNames and JobUsers describe each workload job (index = job id):
	// the ledger's per-job key and the owning tenant, so trace tools can
	// roll charges up by job or tenant without the workload object.
	// Absent in serve-mode traces, whose jobs arrive after the header.
	JobNames []string `json:"job_names,omitempty"`
	JobUsers []string `json:"job_users,omitempty"`
}

// TaskInfo is the payload of task lifecycle events. Node and Store are
// -1 when not applicable (no-input tasks, tasks killed while queued).
// CostUC amounts are exact integer microcents (cost.Money's unit).
type TaskInfo struct {
	Job     int `json:"job"`
	Task    int `json:"task"`
	Node    int `json:"node"`
	Store   int `json:"store"`
	Attempt int `json:"attempt,omitempty"`

	Speculative bool    `json:"speculative,omitempty"`
	Locality    string  `json:"locality,omitempty"` // launch: node-local/zone-local/remote/no-input
	ReadyAt     float64 `json:"ready_at,omitempty"` // enqueue: earliest dispatch time
	DurSec      float64 `json:"dur_sec,omitempty"`  // done: attempt wall-clock (sim seconds)
	XferSec     float64 `json:"xfer_sec,omitempty"` // done: input transfer portion of DurSec
	CPUSec      float64 `json:"cpu_sec,omitempty"`  // done: billed ECU-seconds
	CostUC      int64   `json:"cost_uc,omitempty"`  // microcents billed at this event
	XferUC      int64   `json:"xfer_uc,omitempty"`  // done: transfer portion of CostUC (the rest is CPU)
	Reason      string  `json:"reason,omitempty"`   // kill: timeout/speculative/cancel/node-crash/store-loss
}

// EpochInfo is the payload of one epoch LP solve. The wall-clock *MS
// fields are zero unless the producer opted into timings (they make
// traces machine-dependent; see sched.LiPS.TraceTimings): the epoch's
// four phases in order — build, solve, round, apply — then the solver's
// own split of the solve.
type EpochInfo struct {
	Scheduler string `json:"scheduler"`
	Epoch     int    `json:"epoch"`
	Jobs      int    `json:"jobs"`    // queued jobs planned this epoch
	Pending   int    `json:"pending"` // pending tasks offered to the LP

	Iters  int `json:"iters"`
	Phase1 int `json:"phase1,omitempty"`
	// Status is why the solve failed ("iteration limit", "infeasible", …);
	// empty when it ended optimal. Stalled marks a solve that took more
	// than 20·(rows+cols) pivots, failed or not.
	Status  string `json:"status,omitempty"`
	Stalled bool   `json:"stalled,omitempty"`

	Launched    int `json:"launched"` // tasks enqueued by this epoch's plan
	Deferred    int `json:"deferred"` // fake-node overflow: pending work left for the next epoch
	BlocksMoved int `json:"blocks_moved,omitempty"`

	BuildMS   float64 `json:"build_ms,omitempty"`
	SolveMS   float64 `json:"solve_ms,omitempty"`
	RoundMS   float64 `json:"round_ms,omitempty"`
	ApplyMS   float64 `json:"apply_ms,omitempty"`
	PricingMS float64 `json:"pricing_ms,omitempty"`
	FactorMS  float64 `json:"factor_ms,omitempty"` // factorizing only: the solves are below
	FtranMS   float64 `json:"ftran_ms,omitempty"`
	BtranMS   float64 `json:"btran_ms,omitempty"`
}

// MoveInfo is the payload of a block relocation span.
type MoveInfo struct {
	Object int     `json:"object"`
	Block  int     `json:"block"`
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	MB     float64 `json:"mb"`
	DurSec float64 `json:"dur_sec,omitempty"`
	CostUC int64   `json:"cost_uc,omitempty"`
	Reason string  `json:"reason,omitempty"` // plan/balance/re-replicate/re-materialize
}

// FaultInfo is the payload of an injected fault. Node and Store are -1
// when the fault targets the other resource type.
type FaultInfo struct {
	Kind        string  `json:"kind"` // node-down/node-up/store-loss/slowdown
	Node        int     `json:"node"`
	Store       int     `json:"store"`
	Factor      float64 `json:"factor,omitempty"`
	DurationSec float64 `json:"duration_sec,omitempty"`
}

// SampleInfo is one time-series snapshot: cumulative ledger totals by
// category (exact microcents), task-state counts, slot availability and
// the cumulative locality mix at the sample instant.
type SampleInfo struct {
	Running   int `json:"running"`
	Queued    int `json:"queued"`
	Pending   int `json:"pending"` // arrived jobs' unassigned tasks
	Done      int `json:"done"`
	FreeSlots int `json:"free_slots"`
	LiveSlots int `json:"live_slots"` // slots on nodes currently up

	BusySlotSec float64 `json:"busy_slot_sec"` // cumulative billed slot occupancy

	TotalUC       int64 `json:"total_uc"`
	CPUUC         int64 `json:"cpu_uc"`
	TransferUC    int64 `json:"transfer_uc"`
	PlacementUC   int64 `json:"placement_uc"`
	SpeculativeUC int64 `json:"speculative_uc"`
	FaultUC       int64 `json:"fault_uc"`

	NodeLocal int `json:"node_local"`
	ZoneLocal int `json:"zone_local"`
	Remote    int `json:"remote"`
	NoInput   int `json:"no_input"`

	// Tenants is the cumulative chargeback ledger at the sample instant,
	// one entry per tenant seen so far, sorted by tenant name so traces
	// stay byte-identical across same-seed runs. Per category and in
	// exact microcents, mirroring the category fields above: summing a
	// column across tenants must reproduce the matching global field.
	Tenants []TenantCost `json:"tenants,omitempty"`
}

// TenantCost is one tenant's cumulative chargeback line in a sample.
type TenantCost struct {
	Tenant        string `json:"tenant"`
	TotalUC       int64  `json:"total_uc"`
	CPUUC         int64  `json:"cpu_uc,omitempty"`
	TransferUC    int64  `json:"transfer_uc,omitempty"`
	PlacementUC   int64  `json:"placement_uc,omitempty"`
	SpeculativeUC int64  `json:"speculative_uc,omitempty"`
	FaultUC       int64  `json:"fault_uc,omitempty"`
}

// Tracer receives trace events. Implementations need not be safe for
// concurrent use: the simulator is single-threaded and emits events in
// deterministic order.
//
// A nil Tracer is the one way to turn tracing off: hot paths build an
// event only when the tracer is not nil, so the disabled path costs one
// predictable branch and zero allocations.
type Tracer interface {
	// Emit records one event.
	Emit(e Event)
}

// Validate checks one event against the schema: a known kind, a
// finite non-negative timestamp, the payload matching the kind (and no
// other), and resource ids that are -1 or natural numbers.
func Validate(e Event) error {
	if math.IsNaN(e.T) || math.IsInf(e.T, 0) || e.T < 0 {
		return fmt.Errorf("trace: bad timestamp %v", e.T)
	}
	payloads := 0
	for _, set := range []bool{e.Run != nil, e.Task != nil, e.Epoch != nil, e.Move != nil, e.Fault != nil, e.Sample != nil} {
		if set {
			payloads++
		}
	}
	if payloads > 1 {
		return fmt.Errorf("trace: %s event carries %d payloads", e.Kind, payloads)
	}
	checkID := func(what string, v int) error {
		if v < -1 {
			return fmt.Errorf("trace: %s event has invalid %s %d", e.Kind, what, v)
		}
		return nil
	}
	switch e.Kind {
	case KindRun:
		if e.Run == nil {
			return fmt.Errorf("trace: run event without run payload")
		}
		if e.Run.Scheduler == "" {
			return fmt.Errorf("trace: run event without scheduler")
		}
	case KindEnqueue, KindLaunch, KindDone, KindKill:
		if e.Task == nil {
			return fmt.Errorf("trace: %s event without task payload", e.Kind)
		}
		if e.Task.Job < 0 || e.Task.Task < 0 || e.Task.CostUC < 0 || e.Task.XferUC < 0 {
			return fmt.Errorf("trace: %s event for task %d/%d billing %d µ¢ (%d transfer)",
				e.Kind, e.Task.Job, e.Task.Task, e.Task.CostUC, e.Task.XferUC)
		}
		if err := checkID("node", e.Task.Node); err != nil {
			return err
		}
		if err := checkID("store", e.Task.Store); err != nil {
			return err
		}
	case KindEpoch:
		if e.Epoch == nil {
			return fmt.Errorf("trace: epoch event without epoch payload")
		}
		if e.Epoch.Scheduler == "" || e.Epoch.Epoch <= 0 || e.Epoch.Launched < 0 {
			return fmt.Errorf("trace: epoch event missing scheduler/number or with negative launches")
		}
	case KindMove:
		if e.Move == nil {
			return fmt.Errorf("trace: move event without move payload")
		}
		if e.Move.Object < 0 || e.Move.Block < 0 || e.Move.CostUC < 0 || !(e.Move.MB >= 0) {
			return fmt.Errorf("trace: move event for block %d/%d of %g MB billing %d µ¢",
				e.Move.Object, e.Move.Block, e.Move.MB, e.Move.CostUC)
		}
		if err := checkID("src", e.Move.Src); err != nil {
			return err
		}
		if err := checkID("dst", e.Move.Dst); err != nil {
			return err
		}
	case KindFault:
		if e.Fault == nil {
			return fmt.Errorf("trace: fault event without fault payload")
		}
		if e.Fault.Kind == "" {
			return fmt.Errorf("trace: fault event without kind")
		}
	case KindSample:
		if e.Sample == nil {
			return fmt.Errorf("trace: sample event without sample payload")
		}
		if e.Sample.Running < 0 || e.Sample.Queued < 0 || e.Sample.Pending < 0 || e.Sample.Done < 0 {
			return fmt.Errorf("trace: sample event with negative counts")
		}
		for i, tc := range e.Sample.Tenants {
			if tc.Tenant == "" {
				return fmt.Errorf("trace: sample tenant entry without a name")
			}
			if tc.TotalUC < 0 || tc.CPUUC < 0 || tc.TransferUC < 0 || tc.PlacementUC < 0 ||
				tc.SpeculativeUC < 0 || tc.FaultUC < 0 {
				return fmt.Errorf("trace: sample tenant %s with negative charges", tc.Tenant)
			}
			if i > 0 && e.Sample.Tenants[i-1].Tenant >= tc.Tenant {
				return fmt.Errorf("trace: sample tenants not sorted (%s before %s)",
					e.Sample.Tenants[i-1].Tenant, tc.Tenant)
			}
		}
	default:
		return fmt.Errorf("trace: unknown event kind %q", e.Kind)
	}
	return nil
}
