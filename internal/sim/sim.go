// Package sim is a deterministic discrete-event simulator of a Hadoop-like
// MapReduce cluster: task slots per node, block-granular input reads over a
// pairwise bandwidth model, store-to-store data relocation, per-task dollar
// accounting, progress timeouts and optional speculative execution.
//
// Schedulers plug in through the Scheduler interface. The simulator owns
// the clock, the event heap, per-node slot state and per-node pinned task
// queues; schedulers react to job arrivals, free slots and task
// completions, and act through Launch, Enqueue and MoveBlock.
//
// The core is sized for 10k-node clusters running millions of tasks: task
// state lives in one index-addressed table of pointer-free fixed-size
// pages (with the hot state column in its own byte pages), the event heap
// is a hand-rolled binary heap over pointer-free typed event structs (the rare closure events keep their
// func in a side table), and free slots, running attempts, task-state
// totals, the arrived jobs with their per-job task counts and each job's
// tasks by input location are kept in incremental indexes (see index.go)
// instead of being recomputed by scans. An attempt's start and completion
// read arrays only: zone-pair price and bandwidth tables, and each job's
// ledger, metrics and CPU-time lines resolved when it enters the workload
// (see obs.go).
//
// Simplifications relative to a real cluster (documented in DESIGN.md §6):
// transfers do not contend for link capacity (each gets the full pairwise
// bandwidth), and a task's CPU rate is its slot's fixed share of the
// node's ECU throughput.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/trace"
	"lips/internal/workload"
)

// Scheduler is the plug-in interface, mirroring what Hadoop's JobTracker
// offers a TaskScheduler.
type Scheduler interface {
	// Name labels results.
	Name() string
	// Init runs before the first event; epoch-based schedulers register
	// their first tick here.
	Init(s *Sim)
	// OnJobArrival fires when a job is submitted.
	OnJobArrival(s *Sim, job int)
	// OnSlotFree fires when node n has at least one free slot and no
	// ready queued task. The scheduler may Launch tasks.
	OnSlotFree(s *Sim, n cluster.NodeID)
	// OnTaskDone fires after a task completes.
	OnTaskDone(s *Sim, job, task int)
	// OnNodeDown fires after node n crashes: its running attempts are
	// already killed, its pinned queue drained back to Pending, and its
	// slots gone until OnNodeUp. Epoch planners should rebuild their view
	// of the cluster; greedy schedulers can rely on the slot-free path.
	OnNodeDown(s *Sim, n cluster.NodeID)
	// OnNodeUp fires after node n rejoins with every slot free.
	OnNodeUp(s *Sim, n cluster.NodeID)
}

// BatchScheduler is an optional Scheduler extension for large clusters: a
// scheduler that implements it receives one combined OnSlotsFree call when
// many nodes idle at once (job-arrival sweeps, crash recovery) instead of
// N per-node OnSlotFree calls. KickIdleNodes drains every idle node's
// pinned queue first, then delivers the still-idle nodes in ascending
// order; ordinary single-node slot-free events arrive as a one-element
// slice. The slice is owned by the simulator and valid only for the
// duration of the call — do not retain it. Schedulers that do not
// implement the interface keep the exact per-node OnSlotFree sequence
// they always had (the compatibility shim in notifySlotFree).
type BatchScheduler interface {
	Scheduler
	OnSlotsFree(s *Sim, nodes []cluster.NodeID)
}

// NopNodeEvents provides no-op fault hooks; embed it in schedulers that
// do not track cluster membership (the simulator re-dispatches free slots
// after churn, which is all a greedy scheduler needs).
type NopNodeEvents struct{}

// OnNodeDown implements Scheduler.
func (NopNodeEvents) OnNodeDown(*Sim, cluster.NodeID) {}

// OnNodeUp implements Scheduler.
func (NopNodeEvents) OnNodeUp(*Sim, cluster.NodeID) {}

// Options tunes the simulated Hadoop configuration.
type Options struct {
	// Speculative enables Hadoop-style speculative execution (the paper
	// disables it for LiPS runs; see §VI-A).
	Speculative bool
	// TaskTimeoutSec kills tasks whose input transfer has not completed
	// within the window — Hadoop's 10-minute progress timeout. LiPS
	// raises it to 20 minutes. 0 means 600.
	TaskTimeoutSec float64
	// MaxEvents aborts runaway simulations. 0 means 50 million.
	MaxEvents int
	// BillOccupancy charges CPU for a task's wall-clock slot occupancy
	// (transfer stalls included) instead of pure CPU seconds — an
	// ablation of the billing model (instance time is what EC2 actually
	// charges for).
	BillOccupancy bool
	// Deps declares inter-job dependencies: Deps[j] lists the jobs that
	// must complete before job j is submitted (the paper's §III DAG
	// workloads, reduced to levels by dependency-gated arrivals). Jobs
	// absent or with empty lists arrive at their ArrivalSec. Validate
	// the graph with dag.Validate first — a cyclic graph deadlocks and
	// is reported as an error at the end of Run.
	Deps [][]int
	// SharedLinks makes concurrent task input transfers between a zone
	// pair share that pair's bandwidth (processor sharing) instead of
	// each getting the full pairwise rate — the network-saturation
	// effect the paper warns about. Same-node disk reads never contend;
	// background block relocation stays on the dedicated-rate model so
	// epoch planners can predict its completion.
	SharedLinks bool
	// PriceMultiplier, when non-nil, scales a node's ECU-second price by
	// a time-dependent factor keyed on its instance type — a spot-market
	// model. Each attempt's CPU charge uses the multiplier sampled when
	// the attempt starts, so an attempt straddling a price change keeps
	// its launch-time price — the same convention the LiPS planner uses
	// when it prices an epoch's LP at the epoch start. Schedulers that
	// want to react must consult it themselves (the LiPS adapter
	// re-prices its LP every epoch).
	PriceMultiplier func(instanceType string, t float64) float64
	// Faults injects deterministic node crashes, recoveries, store data
	// losses and straggler slowdowns into the run (see FaultPlan). Nil
	// disables fault injection.
	Faults *FaultPlan
	// Tracer receives structured run events (task lifecycle, block moves,
	// faults, epoch solves via Sim.Tracer). Nil disables tracing; the
	// disabled path is one nil check per call site and allocation-free.
	Tracer trace.Tracer
	// SampleIntervalSec emits a periodic time-series sample event
	// (cumulative cost by category, queue depth, slot utilization,
	// locality mix) every interval of simulated time while tracing is
	// enabled. 0 disables sampling. A sample also refreshes the Metrics
	// gauges, so while sampling is on they follow this interval.
	SampleIntervalSec float64
	// TraceLabel names this run in multi-run traces (e.g. the experiment
	// name when a benchmark suite traces every run into one file).
	TraceLabel string
	// Metrics mirrors the run into a live obs.Registry (lifecycle and
	// cost counters exact at their chokepoints, state gauges refreshed
	// every MetricsSampleSec) for HTTP scraping while the simulation
	// runs. Nil disables; the disabled path is one pointer check per
	// call site and allocation-free.
	Metrics *obs.Registry
	// MetricsSampleSec is the simulated-time interval between refreshes
	// of the sampled gauges (task states, slots, clock) while Metrics is
	// set and trace sampling is off. 0 means 60. Every caller that sets
	// it beside SampleIntervalSec sets the two equal.
	MetricsSampleSec float64

	// maxAttempts is the per-task retry budget before the timeout is
	// waived (prevents livelock on absurd topologies). 0 means 4; tests
	// set it lower, nothing else sets it.
	maxAttempts int
}

func (o Options) withDefaults() Options {
	if o.TaskTimeoutSec == 0 {
		o.TaskTimeoutSec = 600
	}
	if o.maxAttempts == 0 {
		o.maxAttempts = 4
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 50_000_000
	}
	if o.MetricsSampleSec == 0 {
		o.MetricsSampleSec = 60
	}
	return o
}

// TaskState is a task's lifecycle state.
type TaskState int

// Task lifecycle.
const (
	Pending TaskState = iota // not yet assigned
	Queued                   // pinned to a node's queue, waiting for a slot
	Running
	Done
)

// eventKind discriminates the typed events of the hot loop. Closures are
// reserved for the rare paths (fault injection, shared-link flows);
// everything the steady state schedules is a small struct in the heap's
// backing slice, so an event costs no allocation at all.
// Every event is pointer-free: a closure event carries the index of its
// func in Sim.fns, so a sift moves plain words past no write barrier and
// the collector never scans the heap.
type eventKind uint8

const (
	evClosure  eventKind = iota // a0 = slot in Sim.fns
	evArrive                    // a0 = job
	evDispatch                  // a0 = node (coalesced via nodeState.wakeAt)
	evComplete                  // a0 = job, a1 = task, a2 = gen, a3 = 1 if speculative
	evTimeout                   // a0 = job, a1 = task, a2 = gen
	evSnapshot                  // periodic sample or gauge refresh, self-rearming
	evLand                      // a0 = object, a1 = block, a2 = destination store
)

// event is one scheduled occurrence; seq breaks same-time ties by
// insertion order, which is what makes runs deterministic.
type event struct {
	at             float64
	seq            int64
	kind           eventKind
	a0, a1, a2, a3 int32
}

func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts an event into the heap (hand-rolled sift-up: container/heap
// would box every event in an interface{} and allocate per push).
func (s *Sim) push(ev event) {
	s.seq++
	ev.seq = s.seq
	h := append(s.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.events = h
}

// pop removes the earliest event.
func (s *Sim) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && eventBefore(&h[r], &h[l]) {
			c = r
		}
		if !eventBefore(&h[c], &h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.events = h
	return top
}

// taskInfo is one task's row in the task table. The state column lives
// separately in Sim.states so state sweeps touch one byte per task. The
// primary attempt's record is embedded; a speculative copy's is a pooled
// record of the same type (Sim.specs) reached through spec, since at any
// instant almost no task has a copy. Both generations stay here, not in
// the records, because a pooled record is reused by other tasks' copies.
// A row holds no pointer (TestRecordLayout), so the collector never scans
// the table.
type taskInfo struct {
	job, idx int32 // own coordinates (inverse of the flat index)
	attempts int32
	gen      int32 // incremented to cancel in-flight primary events
	specGen  int32 // incremented per spec settle/cancel; voids spec events
	qSeq     int32 // bumped per enqueue; voids stale queue entries
	qNode    int32 // node whose queue holds the live entry; -1 none
	spec     int32 // index into Sim.specs; -1 when no speculative copy

	attempt // the primary

	// doneAt is the primary's expected finish while it runs, then the
	// task's completion time.
	doneAt float64
}

// attempt is one execution attempt, a task's primary or its speculative
// copy.
type attempt struct {
	node  cluster.NodeID
	store cluster.StoreID // input store; NoStore for a task without input
	start float64
	// wallSec is the dedicated-rate attempt's expected wall time, stored
	// at launch so the completion event re-bills the exact float the
	// legacy closure captured ((start+d)−start ≠ d in floating point).
	// transferEndAt is when the input read finishes (shared-link reads
	// track flow instead). price is the node's ECU-second price sampled
	// at attempt start — the price the attempt is billed at even if the
	// spot multiplier moves later.
	wallSec       float64
	transferEndAt float64
	price         cost.Money
	flow          int32 // id of the in-flight shared-link transfer; 0 none
	runPos        int32 // position in Sim.running while it runs; -1 once untracked
}

type jobState struct {
	arrived      bool
	cancelled    bool // withdrawn via CancelJob; its arrival event is void
	active       bool // arrived and incomplete: linked in the active list
	fifoPos      int  // position in the arrival order (valid once arrived)
	remaining    int
	doneAt       float64
	firstLaunch  float64 // first primary-attempt start; -1 until one launches
	firstEnqueue float64 // first scheduler pin of any task; -1 until one is enqueued
	waitingOn    int     // unfinished prerequisite jobs
	dependents   []int   // jobs gated on this one

	// The job index (index.go): the job's tasks per state, the lowest
	// task index that may be Pending, and its links in the active list.
	counts     [4]int32
	cursor     int32
	prev, next int32
}

type queueEntry struct {
	job, task int32
	seq       int32 // must match the task's qSeq or the entry is stale
	store     cluster.StoreID
	readyAt   float64
}

type nodeState struct {
	free  int
	queue []queueEntry

	down       bool    // crashed: no slots, no launches, no enqueues
	slowFactor float64 // straggler runtime multiplier while slowUntil is ahead
	slowUntil  float64
	wakeAt     float64 // latest armed dispatch wake-up (coalescing); -1 none
}

// Sim is one simulation run. Create with New, execute with Run.
type Sim struct {
	C *cluster.Cluster
	W *workload.Workload
	P *hdfs.Placement

	Ledger   *cost.Ledger
	Locality LocalityCounter
	NodeCPU  *NodeCPU
	Faults   FaultStats

	opts  Options
	sched Scheduler
	batch BatchScheduler // sched when it opts into batched notifications

	// tr is the event sink, nil when tracing is disabled, so the disabled
	// path costs one nil check per call site. om is nil when live metrics
	// are disabled — the same guard discipline (see obs.go).
	tr trace.Tracer
	om *obs.SimMetrics

	clock  float64
	seq    int64
	events []event // binary heap ordered by (at, seq)
	nevent int

	// fns holds the funcs of the closure events in the heap; a slot is
	// nil again once its event runs, and fnFree lists those slots.
	fns    []func()
	fnFree []int32

	// books are the jobs' resolved ledger lines and users, by job;
	// sysBook is the book of money no job caused, and sysLine its cost
	// counters (obs.go). users holds the distinct workload Users,
	// indexed by userIdx.
	books   []book
	sysBook book
	sysLine *obs.CostLine
	users   []userBook
	userIdx map[string]int32

	// Serve-mode run state (serve.go): started guards the one-shot Start
	// prelude. The snapshot chain ticks every snapEvery (0: no chain),
	// each tick a trace sample when snapSample, else a gauge refresh;
	// snapLive says a tick is armed, so AddJob can revive a chain that
	// died when the run drained.
	started    bool
	snapEvery  float64
	snapSample bool
	snapLive   bool

	nodes []nodeState
	jobs  []jobState

	// nodeZone and storeZone intern C's zone names (locality.go), so
	// locality checks compare integers, and nodeStore is C.Nodes[n].Store
	// as a dense column, so they read no 88-byte node record. zonePerGB
	// and zoneMBps hold C's ZonePerGB and ZoneMBps of every interned zone
	// pair a, b at a*zones+b. locs holds the jobs' locality indexes, by
	// job; it stays nil in a run whose scheduler never asks
	// BestLocalityTask, and an entry is nil outside the active list.
	nodeZone  []int32
	nodeStore []int32
	storeZone []int32
	zones     int
	zonePerGB []cost.Money
	zoneMBps  []float64
	locs      []*locIndex

	// Task table: task (j, t) has the flat index f = taskBase[j]+t, its
	// row at tasks[f>>pageShift][f&pageMask] (row) and its state byte at
	// the same place in states (state). Both grow a page at a time, so
	// growth copies no row and a row never moves. specs/specFree pool the
	// speculative copies' records. tableErr is set by New, and returned
	// by Start, when the workload's tasks do not fit the table; New then
	// allocates no task rows.
	tasks    []*[pageRows]taskInfo
	states   []*[pageRows]uint8
	taskBase []int32 // len(jobs)+1; taskBase[len(jobs)] = total tasks
	tableErr error
	specs    []attempt
	specFree []int32

	// Incremental indexes; see index.go for the invariants.
	running    []int32  // packed refs of in-flight attempts
	idle       []uint64 // bitset of live nodes with free slots
	freeSlots  int
	liveSlots  int
	totalSlots int
	downNodes  int
	stateCount [4]int
	unarrived  int   // tasks of not-yet-arrived jobs (always Pending)
	actHead    int32 // oldest arrived, incomplete job; -1 none
	actTail    int32 // youngest; -1 none
	nActive    int   // length of the active list

	arrivals    int // jobs arrived so far: the next one's fifoPos
	busySlotSec float64
	remaining   int // incomplete jobs
	net         *netEngine

	oneNode [1]cluster.NodeID // single-node batch for the shim
	kickBuf []cluster.NodeID  // reused idle-set buffer for KickIdleNodes
	hitBuf  []int32           // reused fault-replay collection buffer

	// movingBlocks counts in-flight MoveBlock transfers per (object,
	// block), so planners can avoid racing a relocation they (or a
	// previous epoch) already issued.
	movingBlocks map[[2]int]blockMove
}

type blockMove struct {
	moves  int
	dst    cluster.StoreID // destination of the latest move
	doneAt float64         // when the latest move lands
}

// New builds a simulation of workload w on cluster c under the given
// scheduler. The initial data placement defaults to every object on its
// origin store; pass a non-nil placement to override (it is used
// directly, not copied).
func New(c *cluster.Cluster, w *workload.Workload, p *hdfs.Placement, sched Scheduler, opts Options) *Sim {
	if p == nil {
		p = w.Placement()
	}
	s := &Sim{
		C: c, W: w, P: p,
		Ledger:  cost.NewLedger(),
		NodeCPU: NewNodeCPU(len(c.Nodes)),
		opts:    opts.withDefaults(),
		sched:   sched,
		userIdx: make(map[string]int32),
	}
	if b, ok := sched.(BatchScheduler); ok {
		s.batch = b
	}
	s.tr = s.opts.Tracer
	if s.opts.Metrics != nil {
		s.om = obs.RegisterSim(s.opts.Metrics)
	}

	s.nodes = make([]nodeState, len(c.Nodes))
	s.idle = make([]uint64, (len(c.Nodes)+63)/64)
	for i, n := range c.Nodes {
		s.nodes[i].free = n.Slots
		s.nodes[i].wakeAt = -1
		s.totalSlots += n.Slots
		if n.Slots > 0 {
			s.markIdle(cluster.NodeID(i))
		}
	}
	s.freeSlots = s.totalSlots
	s.liveSlots = s.totalSlots
	s.internZones()
	s.resolveSystem()

	s.jobs = make([]jobState, len(w.Jobs))
	s.taskBase = make([]int32, len(w.Jobs)+1)
	s.actHead, s.actTail = -1, -1
	total := 0
	for j, job := range w.Jobs {
		s.taskBase[j] = int32(total)
		total += job.NumTasks
		s.jobs[j] = newJobState(job.NumTasks)
	}
	if total > maxTasks {
		s.tableErr = errTaskTable(total)
		return s
	}
	s.taskBase[len(w.Jobs)] = int32(total)
	s.books = make([]book, len(w.Jobs))
	for j := range w.Jobs {
		s.books[j] = s.resolveBook(j)
	}
	s.growTable(total)
	for j := range w.Jobs {
		s.initRows(j)
	}
	s.stateCount[Pending] = total
	s.unarrived = total
	s.remaining = len(w.Jobs)

	// Pre-size the heap for the steady state — one completion event per
	// occupied slot plus the job arrivals — so the hot loop never grows
	// it. The running index is bounded by the slot count outright.
	s.events = make([]event, 0, s.totalSlots+len(w.Jobs)+16)
	s.running = make([]int32, 0, s.totalSlots+1)
	s.kickBuf = make([]cluster.NodeID, 0, len(c.Nodes))

	s.net = newNetEngine(s)
	s.movingBlocks = make(map[[2]int]blockMove)
	return s
}

// newJobState is the record of a job not yet arrived: every task Pending.
func newJobState(tasks int) jobState {
	js := jobState{remaining: tasks, firstLaunch: -1, firstEnqueue: -1, prev: -1, next: -1}
	js.counts[Pending] = int32(tasks)
	return js
}

// maxTasks bounds the task table, whose flat indices are int32.
const maxTasks = math.MaxInt32

// errTaskTable is the refusal of a run or job that would take the task
// table to total tasks, past maxTasks.
func errTaskTable(total int) error {
	return fmt.Errorf("sim: %d tasks overflow the flat task table (at most %d)", total, maxTasks)
}

// A task table page holds pageRows rows: 96 KB of taskInfo and 1 KB of
// state bytes, so a table's slack is under one page.
const (
	pageShift = 10
	pageRows  = 1 << pageShift
	pageMask  = pageRows - 1
)

// growTable appends pages until the table has room for total tasks. A
// fresh page's states read Pending.
func (s *Sim) growTable(total int) {
	for len(s.tasks)*pageRows < total {
		s.tasks = append(s.tasks, new([pageRows]taskInfo))
		s.states = append(s.states, new([pageRows]uint8))
	}
}

// initRows writes the rows of job j's tasks, taskBase[j] to
// taskBase[j+1].
func (s *Sim) initRows(j int) {
	base := s.taskBase[j]
	for f := base; f < s.taskBase[j+1]; f++ {
		*s.row(f) = taskInfo{job: int32(j), idx: f - base, qNode: -1, spec: -1, attempt: attempt{runPos: -1}}
	}
}

// row returns the row of the task at flat index f.
func (s *Sim) row(f int32) *taskInfo { return &s.tasks[f>>pageShift][f&pageMask] }

// state returns the state of the task at flat index f.
func (s *Sim) state(f int32) TaskState { return TaskState(s.states[f>>pageShift][f&pageMask]) }

// Now returns the simulation clock in seconds.
func (s *Sim) Now() float64 { return s.clock }

// At schedules fn to run at time t (clamped to now).
func (s *Sim) At(t float64, fn func()) {
	if t < s.clock {
		t = s.clock
	}
	var slot int32
	if n := len(s.fnFree); n > 0 {
		slot = s.fnFree[n-1]
		s.fnFree = s.fnFree[:n-1]
		s.fns[slot] = fn
	} else {
		slot = int32(len(s.fns))
		s.fns = append(s.fns, fn)
	}
	s.push(event{at: t, kind: evClosure, a0: slot})
}

// schedule enqueues a typed (allocation-free) event at time t.
func (s *Sim) schedule(t float64, kind eventKind, a0, a1, a2, a3 int32) {
	if t < s.clock {
		t = s.clock
	}
	s.push(event{at: t, kind: kind, a0: a0, a1: a1, a2: a2, a3: a3})
}

// exec runs one popped event.
func (s *Sim) exec(ev *event) {
	switch ev.kind {
	case evClosure:
		fn := s.fns[ev.a0]
		s.fns[ev.a0] = nil
		s.fnFree = append(s.fnFree, ev.a0)
		fn()
	case evArrive:
		s.arrive(int(ev.a0))
	case evDispatch:
		ns := &s.nodes[ev.a0]
		if ns.wakeAt == ev.at {
			ns.wakeAt = -1
		}
		s.dispatch(cluster.NodeID(ev.a0))
	case evComplete:
		s.completeEvent(int(ev.a0), int(ev.a1), ev.a2, ev.a3 == 1)
	case evTimeout:
		s.timeoutEvent(int(ev.a0), int(ev.a1), ev.a2)
	case evLand:
		s.land(int(ev.a0), int(ev.a1), cluster.StoreID(ev.a2))
	case evSnapshot:
		s.snapshot()
		if s.remaining > 0 {
			s.schedule(s.clock+s.snapEvery, evSnapshot, 0, 0, 0, 0)
		} else {
			s.snapLive = false // AddJob re-arms (serve.go)
		}
	}
}

// Run executes the simulation to completion and returns the result. It is
// the batch driver: Start's prelude, StepUntil to each event time in turn
// until the heap drains, then Finish. A caller that must stop between
// steps (lips-sim on a signal) drives the same three itself.
func (s *Sim) Run() (*Result, error) {
	if err := s.Start(); err != nil {
		return nil, err
	}
	for t, ok := s.NextEventAt(); ok; t, ok = s.NextEventAt() {
		if err := s.StepUntil(t); err != nil {
			return nil, err
		}
	}
	return s.Finish()
}

// Finish ends a batch run whose heap has drained: its Result, or the
// deadlock error when jobs remain incomplete.
func (s *Sim) Finish() (*Result, error) {
	if s.remaining > 0 {
		return nil, fmt.Errorf("sim: deadlock: %d jobs incomplete at t=%.1f under %s", s.remaining, s.clock, s.sched.Name())
	}
	return s.result(), nil
}

func (s *Sim) arrive(job int) {
	js := &s.jobs[job]
	if js.cancelled {
		return // withdrawn before arrival; unarrived already corrected
	}
	js.arrived = true
	js.fifoPos = s.arrivals
	s.arrivals++
	s.unarrived -= s.W.Jobs[job].NumTasks
	if js.remaining > 0 {
		s.linkActive(job)
	}
	s.sched.OnJobArrival(s, job)
}

// flat returns the task's flat index in the table.
func (s *Sim) flat(job, task int) int32 { return s.taskBase[job] + int32(task) }

// task returns the task's row.
func (s *Sim) task(job, task int) *taskInfo { return s.row(s.taskBase[job] + int32(task)) }

// ArrivedJobs returns the arrived-and-incomplete jobs in arrival order,
// in a fresh slice. It walks the active list, so it costs O(active jobs),
// not O(jobs ever arrived); NextArrived is the allocation-free walk.
func (s *Sim) ArrivedJobs() []int {
	out := make([]int, 0, s.nActive)
	for j := s.actHead; j >= 0; j = s.jobs[j].next {
		out = append(out, int(j))
	}
	return out
}

// NextArrived walks the jobs ArrivedJobs lists without allocating:
// NextArrived(-1) is the oldest arrived, incomplete job, NextArrived(j)
// the one after j, and -1 ends the walk. A job that completes or is
// cancelled leaves the list at once and ends a walk standing on it, so a
// walker that can finish or cancel jobs restarts from -1.
func (s *Sim) NextArrived(job int) int {
	if job < 0 {
		return int(s.actHead)
	}
	return int(s.jobs[job].next)
}

// PendingTasks returns the Pending task indices of a job, ascending, or
// nil when it has none. The scan starts at the job's cursor and stops at
// its last Pending task, so a job with nothing pending costs O(1).
func (s *Sim) PendingTasks(job int) []int {
	js := &s.jobs[job]
	left := int(js.counts[Pending])
	if left == 0 {
		return nil
	}
	out := make([]int, 0, left)
	base, end := s.taskBase[job], s.taskBase[job+1]
	for f := base + js.cursor; left > 0 && f < end; f++ {
		if s.state(f) == Pending {
			out = append(out, int(f-base))
			left--
		}
	}
	js.cursor = int32(out[0])
	return out
}

// NextPending returns the lowest Pending task index of a job that is ≥
// from, or -1 — the allocation-free alternative to PendingTasks for
// schedulers that sweep a job with a cursor (amortized O(1) per launch
// while the cursor only moves forward). It returns at once when the job
// has nothing pending, and never scans below the job's own cursor.
func (s *Sim) NextPending(job, from int) int {
	js := &s.jobs[job]
	if js.counts[Pending] == 0 {
		return -1
	}
	start := js.cursor
	if int(start) < from {
		start = int32(from)
	}
	base, end := s.taskBase[job], s.taskBase[job+1]
	for f := base + start; f < end; f++ {
		if s.state(f) == Pending {
			t := f - base
			if start == js.cursor {
				js.cursor = t // nothing Pending lay between
			}
			return int(t)
		}
	}
	return -1
}

// FreeSlots returns the free slot count of a node.
func (s *Sim) FreeSlots(n cluster.NodeID) int { return s.nodes[n].free }

// JobRemaining returns how many tasks of the job are not Done.
func (s *Sim) JobRemaining(job int) int { return s.jobs[job].remaining }

// KickIdleNodes invokes the scheduler's slot-free path for every live
// node that has free slots — how built-in schedulers react to arrivals
// (and how they pick up work orphaned by a crash). The sweep walks the
// idle bitset rather than every node; under a BatchScheduler the idle set
// is delivered in one OnSlotsFree call after the pinned queues drain.
func (s *Sim) KickIdleNodes() {
	if s.batch != nil {
		s.sweepIdle(true)
		buf := s.IdleNodes(s.kickBuf[:0])
		s.kickBuf = buf
		if len(buf) > 0 {
			s.batch.OnSlotsFree(s, buf)
		}
		return
	}
	s.sweepIdle(false)
}

// sweepIdle visits every idle node in ascending order, re-reading the
// bitset word after each visit: a dispatch can fill nodes ahead of the
// sweep, so liveness is checked at visit time. Bits at or below the
// visited node are masked off — a node is visited at most once, as a
// scan over the node table would. drainOnly skips the per-node scheduler
// notification; the batched path delivers one combined callback after.
func (s *Sim) sweepIdle(drainOnly bool) {
	for wi := 0; wi < len(s.idle); wi++ {
		pending := s.idle[wi]
		for pending != 0 {
			b := bits.TrailingZeros64(pending)
			n := cluster.NodeID(wi<<6 + b)
			if drainOnly {
				s.drainQueue(n, &s.nodes[n])
			} else {
				s.dispatch(n)
			}
			pending = s.idle[wi] &^ (^uint64(0) >> (63 - uint(b)))
		}
	}
}

// notifySlotFree hands an idle node to the scheduler — the compatibility
// shim between the two notification styles: batch-aware schedulers get a
// one-element OnSlotsFree, everyone else the classic OnSlotFree.
func (s *Sim) notifySlotFree(n cluster.NodeID) {
	if s.batch != nil {
		s.oneNode[0] = n
		s.batch.OnSlotsFree(s, s.oneNode[:])
		return
	}
	s.sched.OnSlotFree(s, n)
}

// armDispatch schedules a dispatch wake-up for node n at time t,
// coalescing with an identical wake-up already in the heap: epoch
// planners enqueue whole task batches behind one block move, which used
// to push one (redundant) event per task.
func (s *Sim) armDispatch(n cluster.NodeID, t float64) {
	ns := &s.nodes[n]
	if ns.wakeAt == t {
		return
	}
	ns.wakeAt = t
	s.schedule(t, evDispatch, int32(n), 0, 0, 0)
}

// result assembles the final Result.
func (s *Sim) result() *Result {
	r := &Result{
		Scheduler: s.sched.Name(),
		Cost:      s.Ledger,
		Locality:  s.Locality,
		NodeCPU:   s.NodeCPU,
		JobDone:   make([]float64, len(s.jobs)),
		UserCPU:   s.UserCPU(),
		Faults:    s.Faults,
	}
	for j := range s.jobs {
		r.JobDone[j] = s.jobs[j].doneAt
		if s.jobs[j].doneAt > r.Makespan {
			r.Makespan = s.jobs[j].doneAt
		}
		r.SumJobSec += s.jobs[j].doneAt - s.W.Jobs[j].ArrivalSec
	}
	r.Utilization = Utilization(s.busySlotSec, float64(s.totalSlots), r.Makespan)
	shares := make([]float64, 0, len(r.UserCPU))
	users := make([]string, 0, len(r.UserCPU))
	for u := range r.UserCPU {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		shares = append(shares, r.UserCPU[u])
	}
	r.Fairness = JainIndex(shares)
	return r
}

// Result summarises one run.
type Result struct {
	Scheduler string

	Makespan  float64 // completion time of the last job
	SumJobSec float64 // Σ per-job (done − arrival), the paper's "total job execution time"

	Cost     *cost.Ledger
	Locality LocalityCounter
	NodeCPU  *NodeCPU
	JobDone  []float64
	UserCPU  map[string]float64
	Faults   FaultStats

	Utilization float64
	Fairness    float64 // Jain index over per-user CPU shares
}

// TotalCost is shorthand for the ledger total.
func (r *Result) TotalCost() cost.Money { return r.Cost.Total() }
