// Package serve is the lips-serve scheduling daemon: a long-running HTTP
// service that accepts streaming job submissions, feeds them into a
// continuously advancing simulated cluster, and re-solves the scheduling
// plan epoch by epoch.
//
// The paper's online epoch LP (Fig. 4) is inherently a continuous
// scheduler — jobs arrive, each epoch re-solves, overflow returns to the
// queue — and this package is that operating regime: the batch harness
// runs one workload to completion, the daemon never finishes.
//
// Concurrency model. Submissions land in an admission queue guarded by a
// fast mutex (d.mu) that no solver work ever holds, so the submit path's
// latency is independent of epoch solve time — the p99 submit SLO the
// smoke gate asserts. A single epoch goroutine drains the queue: each
// wall tick it raises the busy flag, applies pending cancellations,
// admits a tenant-fair batch into the simulator, advances simulated time
// by one epoch (sim.StepUntil — this is where the LiPS LP solves), and
// publishes per-job progress back under d.mu. Admission control sheds
// load with 429 + Retry-After when the queue is full, or at half-full
// while an epoch is running; draining shutdown answers 503.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/workload"
)

// Config tunes the daemon. Zero values select the documented defaults.
type Config struct {
	// EpochSimSec is the simulated seconds the cluster advances per serve
	// epoch. Default 60.
	EpochSimSec float64
	// EpochWallInterval paces the epoch loop in wall time. Default 25ms.
	EpochWallInterval time.Duration
	// QueueCap bounds the admission queue; submissions beyond it are
	// rejected with 429. Default 4096.
	QueueCap int
	// AdmitPerEpoch bounds how many queued jobs enter the simulation per
	// epoch. Default 512.
	AdmitPerEpoch int
	// RetryAfterSec is the Retry-After header on 429/503. Default 1.
	RetryAfterSec int
	// DrainTimeout bounds how long Shutdown keeps stepping epochs to let
	// in-flight jobs finish. Default 30s.
	DrainTimeout time.Duration
	// Weights are per-tenant fair-share weights for admission ordering;
	// missing tenants weigh 1.
	Weights map[string]float64
	// Logger receives structured lifecycle, shed and slow-epoch events.
	// nil selects a no-op logger, keeping the hot paths silent.
	Logger *slog.Logger
	// EpochRing bounds the /debug/epochs decision ring. Default 128.
	EpochRing int
	// SpanRing bounds the completed-span ring behind /debug/spans.
	// Default 1024.
	SpanRing int
	// SLOE2ESec bounds submission→terminal latency per tenant in
	// simulated seconds; 0 disables the e2e objective.
	SLOE2ESec float64
	// SLOQueueWaitSec bounds submission→admission latency per tenant in
	// simulated seconds; 0 disables the queue-wait objective.
	SLOQueueWaitSec float64
	// SLOBudget is the allowed violation fraction for both objectives.
	// Default 0.05.
	SLOBudget float64
	// SLOShortSec and SLOLongSec are the burn-rate windows in simulated
	// seconds. Defaults 300 and 6× the short window.
	SLOShortSec, SLOLongSec float64
	// Budgets caps per-tenant spend in dollars. Once a tenant's ledger
	// charges reach its cap, its queued jobs sit out admission with the
	// budget-exhausted deferral reason until the operator raises the cap.
	// Missing or non-positive entries mean unlimited.
	Budgets map[string]float64
}

func (c Config) withDefaults() Config {
	if c.EpochSimSec <= 0 {
		c.EpochSimSec = 60
	}
	if c.EpochWallInterval <= 0 {
		c.EpochWallInterval = 25 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
	if c.AdmitPerEpoch <= 0 {
		c.AdmitPerEpoch = 512
	}
	if c.RetryAfterSec <= 0 {
		c.RetryAfterSec = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.EpochRing <= 0 {
		c.EpochRing = 128
	}
	if c.SpanRing <= 0 {
		c.SpanRing = 1024
	}
	return c
}

// Job lifecycle states as reported by /status.
const (
	StateQueued     = "queued"     // accepted, waiting for admission
	StateAdmitted   = "admitted"   // in the simulator, nothing launched yet
	StateRunning    = "running"    // at least one task has launched
	StateDone       = "done"       // every task completed
	StateCancelling = "cancelling" // cancel requested, not yet applied
	StateCancelled  = "cancelled"  // withdrawn
)

// jobRecord is the daemon's view of one submission. Fields are guarded
// by Daemon.mu; the epoch loop publishes simulator progress into them
// once per epoch, so /status reads are cheap and at most one epoch stale.
type jobRecord struct {
	id     int
	tenant string
	name   string
	spec   submitSpec

	state         string
	simJob        int // -1 until admitted
	cancelPending bool
	submittedWall time.Time

	// Span milestones, simulated seconds. submittedSim is stamped at
	// submit time from the (one-epoch-stale) serve clock; the rest are
	// published by the epoch loop. The booleans distinguish "unset" from
	// a legal zero timestamp.
	submittedSim   float64
	admittedSim    float64 // valid once simJob >= 0
	admittedEpoch  int64   // serve epoch that admitted the job; 0 = none
	plannedSim     float64 // valid once planned
	planned        bool    // a scheduler epoch pinned a task
	firstLaunchSim float64 // valid once launched
	launched       bool
	doneSim        float64 // valid in a terminal state
	costUC         int64   // ledger charge so far, microcents

	pending, queued, running, doneTasks int
}

// submitSpec is the validated payload of one submission.
type submitSpec struct {
	archetype     workload.Archetype
	inputMB       float64
	accessFrac    float64
	tasks         int
	cpuSecPerTask float64
}

type cancelReq struct{ recID, simJob int }

// Daemon is the serve-mode scheduler instance. Create with New, start the
// epoch loop with Start, mount Handler on an obs server, stop with
// Shutdown.
type Daemon struct {
	cfg Config
	reg *obs.Registry
	sm  *obs.ServeMetrics
	s   *sim.Sim
	sch sim.Scheduler // for LiPS's own record of its epochs
	log *slog.Logger

	// spans is the bounded ring of completed spans (done, cancelled,
	// shed). It has its own lock and never takes d.mu.
	spans *obs.SpanRing

	// burn is the SLO burn-rate engine (own lock, never takes d.mu);
	// disabled when no objective is configured. budgets holds the
	// per-tenant dollar caps converted to exact microcents, immutable
	// after New.
	burn    *obs.BurnEngine
	budgets map[string]cost.Money

	// mu guards the admission state: records, queue, cancels, active set,
	// tenant bookkeeping and the draining flag. Never held during solver
	// work.
	mu        sync.Mutex
	records   []*jobRecord
	queue     []int // record IDs awaiting admission, submission order
	cancels   []cancelReq
	active    []int // record IDs admitted and not yet finished
	tenants   map[string]bool
	tenantCPU map[string]float64 // ECU-seconds per tenant, last epoch's copy
	// tenantSpend is the chargeback ledger's tenant×category view, copied
	// from the simulator once per epoch (so /tenants and the budget gate
	// never touch simMu and lag by at most one epoch).
	tenantSpend map[string]map[cost.Category]cost.Money
	draining    bool
	epochs      int64
	loopErr     error
	decisions   *decisionRing  // /debug/epochs ring
	shedCounts  map[string]int // 429/503 sheds since the last recorded epoch

	// simMu guards the simulator; busy is set for the span of an epoch,
	// which is all the admission path wants to know about the solver.
	simMu sync.Mutex
	busy  atomic.Bool

	// Only the epoch goroutine touches these two.
	originRR   int // round-robin origin store for submitted inputs
	schedEpoch int // scheduler epoch the decision ring last showed

	running  bool // loop launched (guarded by mu)
	stop     chan struct{}
	stopOnce sync.Once
	doneCh   chan struct{}
}

// New builds a daemon serving cluster c under the given scheduler. The
// registry receives both the simulator families and the lips_serve_
// families; pass the same registry to the obs HTTP server.
func New(c *cluster.Cluster, sch sim.Scheduler, reg *obs.Registry, cfg Config) (*Daemon, error) {
	// Every submission with input is given an origin store round-robin
	// and needs a node to run on; neither can be conjured later.
	if len(c.Nodes) == 0 {
		return nil, errors.New("serve: cluster has no nodes")
	}
	if len(c.Stores) == 0 {
		return nil, errors.New("serve: cluster has no stores")
	}
	cfg = cfg.withDefaults()
	w := &workload.Workload{}
	s := sim.New(c, w, nil, sch, sim.Options{
		Metrics:          reg,
		MetricsSampleSec: cfg.EpochSimSec,
		// A daemon's event count grows without bound by design; the batch
		// runaway guard would otherwise kill it after a few busy days.
		MaxEvents: math.MaxInt64 / 2,
	})
	if err := s.Start(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var slos []obs.SLO
	if cfg.SLOE2ESec > 0 {
		slos = append(slos, obs.SLO{Kind: obs.SLOE2E, ObjectiveSec: cfg.SLOE2ESec,
			Budget: cfg.SLOBudget, ShortSec: cfg.SLOShortSec, LongSec: cfg.SLOLongSec})
	}
	if cfg.SLOQueueWaitSec > 0 {
		slos = append(slos, obs.SLO{Kind: obs.SLOQueueWait, ObjectiveSec: cfg.SLOQueueWaitSec,
			Budget: cfg.SLOBudget, ShortSec: cfg.SLOShortSec, LongSec: cfg.SLOLongSec})
	}
	budgets := make(map[string]cost.Money, len(cfg.Budgets))
	for tenant, usd := range cfg.Budgets {
		if usd > 0 {
			budgets[tenant] = cost.Dollars(usd)
		}
	}
	d := &Daemon{
		cfg:         cfg,
		reg:         reg,
		sm:          obs.RegisterServe(reg),
		s:           s,
		sch:         sch,
		log:         cfg.Logger,
		spans:       obs.NewSpanRing(cfg.SpanRing),
		burn:        obs.NewBurnEngine(slos...),
		budgets:     budgets,
		tenants:     make(map[string]bool),
		tenantCPU:   make(map[string]float64),
		tenantSpend: make(map[string]map[cost.Category]cost.Money),
		decisions:   newDecisionRing(cfg.EpochRing),
		stop:        make(chan struct{}),
		doneCh:      make(chan struct{}),
	}
	return d, nil
}

// Ready reports whether the daemon should receive traffic: the epoch
// loop is running, not draining, and has not died on an error. /readyz
// serves 503 the moment this turns false, so load balancers stop
// routing before Shutdown closes anything.
func (d *Daemon) Ready() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.running && !d.draining && d.loopErr == nil
}

// Spans returns the completed-span ring (done, cancelled and shed
// submissions, oldest evicted first).
func (d *Daemon) Spans() *obs.SpanRing { return d.spans }

// Start launches the epoch loop. Calling it twice is a no-op.
func (d *Daemon) Start() {
	d.mu.Lock()
	already := d.running
	d.running = true
	d.mu.Unlock()
	if !already {
		d.log.Info("epoch loop started",
			"epoch_sim_sec", d.cfg.EpochSimSec,
			"epoch_wall_interval", d.cfg.EpochWallInterval.String(),
			"queue_cap", d.cfg.QueueCap)
		go d.loop()
	}
}

// Err returns the first epoch-loop error (the loop stops on one).
func (d *Daemon) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.loopErr
}

// simNowLocked returns the simulated clock (one epoch stale at most).
func (d *Daemon) simNowLocked() float64 {
	return float64(d.epochs) * d.cfg.EpochSimSec
}

// TenantCPU returns each tenant's accumulated ECU-seconds as of the last
// epoch — the fairness view the admission order uses.
func (d *Daemon) TenantCPU() map[string]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]float64, len(d.tenantCPU))
	for k, v := range d.tenantCPU {
		out[k] = v
	}
	return out
}

// Shutdown drains and stops the daemon: new submissions are refused with
// 503, the epoch loop keeps stepping until every admitted job finishes
// (bounded by DrainTimeout), then the loop exits. It returns the loop's
// first error, if any.
func (d *Daemon) Shutdown() error {
	d.mu.Lock()
	d.draining = true
	running := d.running
	queued, active := len(d.queue), len(d.active)
	d.mu.Unlock()
	d.log.Info("drain started", "queued", queued, "active", active)
	if running {
		// Only a live loop can drain the queue; waiting on a stopped one
		// would just burn the whole timeout (or, for <-doneCh, forever).
		deadline := time.Now().Add(d.cfg.DrainTimeout)
		for time.Now().Before(deadline) {
			d.mu.Lock()
			idle := len(d.queue) == 0 && len(d.active) == 0 && len(d.cancels) == 0
			err := d.loopErr
			d.mu.Unlock()
			if idle || err != nil {
				break
			}
			time.Sleep(d.cfg.EpochWallInterval)
		}
	}
	d.stopOnce.Do(func() { close(d.stop) })
	if running {
		<-d.doneCh
	}
	err := d.Err()
	if err != nil {
		d.log.Error("daemon stopped", "err", err)
	} else {
		d.log.Info("daemon stopped")
	}
	return err
}

func (d *Daemon) loop() {
	defer close(d.doneCh)
	t := time.NewTicker(d.cfg.EpochWallInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if err := d.epoch(); err != nil {
				d.mu.Lock()
				if d.loopErr == nil {
					d.loopErr = err
				}
				d.mu.Unlock()
				return
			}
		}
	}
}

// overBudgetLocked reports whether the tenant's ledger spend (as of the
// last epoch's copy) has reached its configured dollar cap.
func (d *Daemon) overBudgetLocked(tenant string) bool {
	limit, ok := d.budgets[tenant]
	if !ok {
		return false
	}
	var spent cost.Money
	for _, m := range d.tenantSpend[tenant] {
		spent += m
	}
	return spent >= limit
}

// takeBatchLocked removes up to AdmitPerEpoch records from the queue in
// tenant-fair order: tenants are served cheapest-first by accumulated
// ECU-seconds over weight, FIFO within a tenant. Records of tenants that
// exhausted their dollar budget are passed over entirely (returned in
// overBudget, keyed by record ID) and stay queued. The remainder keeps
// its submission order.
func (d *Daemon) takeBatchLocked() (batch []*jobRecord, overBudget map[int]bool) {
	if len(d.queue) == 0 {
		return nil, nil
	}
	// Rank each eligible queued record by its tenant's normalized usage,
	// keeping submission order as the tiebreak (the selection must be
	// stable for determinism under equal usage).
	type ranked struct {
		pos     int
		deficit float64
	}
	rank := make([]ranked, 0, len(d.queue))
	blockedTenant := make(map[string]bool)
	for i, id := range d.queue {
		rec := d.records[id]
		if len(d.budgets) > 0 {
			over, seen := blockedTenant[rec.tenant]
			if !seen {
				over = d.overBudgetLocked(rec.tenant)
				blockedTenant[rec.tenant] = over
			}
			if over {
				if overBudget == nil {
					overBudget = make(map[int]bool)
				}
				overBudget[id] = true
				continue
			}
		}
		w := 1.0
		if pw, ok := d.cfg.Weights[rec.tenant]; ok && pw > 0 {
			w = pw
		}
		rank = append(rank, ranked{pos: i, deficit: d.tenantCPU[rec.tenant] / w})
	}
	n := d.cfg.AdmitPerEpoch
	if n > len(rank) {
		n = len(rank)
	}
	// Insertion-style selection of the n smallest keeps the code free of
	// sort.Slice closures over d; the queue is bounded by QueueCap.
	selected := make([]bool, len(d.queue))
	batch = make([]*jobRecord, 0, n)
	for len(batch) < n {
		best := -1
		for i := range rank {
			if selected[rank[i].pos] {
				continue
			}
			if best == -1 || rank[i].deficit < rank[best].deficit {
				best = i
			}
		}
		selected[rank[best].pos] = true
		batch = append(batch, d.records[d.queue[rank[best].pos]])
	}
	rest := d.queue[:0]
	for i, id := range d.queue {
		if !selected[i] {
			rest = append(rest, id)
		}
	}
	d.queue = rest
	return batch, overBudget
}

// epoch runs one serve epoch: cancellations, tenant-fair admission, one
// simulated-time step, progress publication, metrics, and one entry in
// the /debug/epochs decision ring.
func (d *Daemon) epoch() error {
	d.busy.Store(true) // admission control sheds a half-full queue meanwhile
	defer d.busy.Store(false)

	d.mu.Lock()
	cancels := d.cancels
	d.cancels = nil
	batch, overBudget := d.takeBatchLocked()
	// Queue leftovers either sat out on an exhausted tenant budget or
	// lost this epoch's fair-share ranking to the AdmitPerEpoch bound —
	// the queue-side classes of typed deferrals.
	var deferred []Deferral
	for _, id := range d.queue {
		if len(deferred) == maxDecisionRefs {
			break
		}
		rec := d.records[id]
		reason := obs.ReasonFairShare
		if overBudget[id] {
			reason = obs.ReasonBudgetExhausted
		}
		deferred = append(deferred, Deferral{JobRef{rec.id, rec.tenant}, reason})
	}
	deferredTotal := len(d.queue)
	shed := d.shedCounts
	d.shedCounts = nil
	activePairs := make([]cancelReq, 0, len(d.active))
	for _, id := range d.active {
		activePairs = append(activePairs, cancelReq{recID: id, simJob: d.records[id].simJob})
	}
	d.mu.Unlock()

	type admitResult struct {
		rec    *jobRecord
		simJob int
		err    error
	}

	stepStart := time.Now()
	d.simMu.Lock()
	for _, c := range cancels {
		if err := d.s.CancelJob(c.simJob); err != nil {
			d.simMu.Unlock()
			return fmt.Errorf("serve: cancel job %d: %w", c.simJob, err)
		}
	}
	now := d.s.Now()
	admitted := make([]admitResult, 0, len(batch))
	for _, rec := range batch {
		job := workload.Job{
			Name:          rec.name,
			Archetype:     rec.spec.archetype.Name,
			User:          rec.tenant,
			ArrivalSec:    now,
			NumTasks:      rec.spec.tasks,
			AccessFrac:    rec.spec.accessFrac,
			CPUSecPerMB:   rec.spec.archetype.CPUSecPerMB(),
			CPUSecPerTask: rec.spec.cpuSecPerTask,
		}
		var obj *hdfs.DataObject
		if rec.spec.archetype.HasInput() {
			obj = &hdfs.DataObject{
				Name:   rec.name,
				SizeMB: rec.spec.inputMB,
				Origin: d.nextOrigin(),
			}
		}
		simJob, err := d.s.AddJob(job, obj)
		admitted = append(admitted, admitResult{rec: rec, simJob: simJob, err: err})
	}
	target := d.s.Now() + d.cfg.EpochSimSec
	stepErr := d.s.StepUntil(target)

	// Collect post-step progress while still holding the simulator.
	type progress struct {
		recID                               int
		pending, queued, running, doneTasks int
		firstLaunch, plannedAt, doneAt      float64
		launched, planned, cancelled        bool
		costUC                              int64
	}
	collect := func(recID, simJob int) progress {
		p := progress{recID: recID}
		p.pending, p.queued, p.running, p.doneTasks = d.s.JobStateCounts(simJob)
		if fl, ok := d.s.JobFirstLaunch(simJob); ok {
			p.firstLaunch, p.launched = fl, true
		}
		if fe, ok := d.s.JobFirstEnqueue(simJob); ok {
			p.plannedAt, p.planned = fe, true
		}
		p.doneAt = d.s.JobDoneAt(simJob)
		p.cancelled = d.s.JobCancelled(simJob)
		p.costUC = d.s.JobCostUC(simJob)
		return p
	}
	updates := make([]progress, 0, len(activePairs)+len(admitted))
	for _, a := range admitted {
		if a.err == nil {
			updates = append(updates, collect(a.rec.id, a.simJob))
		}
	}
	for _, p := range activePairs {
		// A record cancelled this very epoch appears only once: the active
		// list still holds it, the cancels slice carried the same ID.
		updates = append(updates, collect(p.recID, p.simJob))
	}
	cpu := make(map[string]float64, len(d.s.UserCPU))
	for u, v := range d.s.UserCPU {
		cpu[u] = v
	}
	spend := make(map[string]map[cost.Category]cost.Money)
	for _, tn := range d.s.Ledger.Tenants() {
		spend[tn] = d.s.Ledger.TenantBreakdown(tn)
	}
	simNow := d.s.Now()
	d.simMu.Unlock()
	stepWall := time.Since(stepStart)

	// Publish under the fast lock. The obs calls inside the critical
	// section are lock-free atomics (plus a family mutex on first child
	// creation) and never take d.mu, so no ordering hazard.
	epochNum := d.epochs + 1
	newlyDone, newlyCancelled := 0, 0
	var launches []float64
	var completed []obs.Span // spans to push into the ring after unlock
	admittedRefs := make([]JobRef, 0, len(admitted))
	admittedTotal := 0
	d.mu.Lock()
	for _, a := range admitted {
		if a.err != nil {
			// A malformed spec that slipped past validation: fail the
			// record, not the daemon.
			a.rec.state = StateCancelled
			a.rec.doneSim = now
			completed = append(completed, d.spanLocked(a.rec))
			newlyCancelled++
			continue
		}
		a.rec.simJob = a.simJob
		a.rec.admittedSim = now
		a.rec.admittedEpoch = epochNum
		d.sm.QueueWait.With(a.rec.tenant).Observe(now - a.rec.submittedSim)
		d.burn.Observe(a.rec.tenant, obs.SLOQueueWait, now, now-a.rec.submittedSim)
		admittedTotal++
		if len(admittedRefs) < maxDecisionRefs {
			admittedRefs = append(admittedRefs, JobRef{a.rec.id, a.rec.tenant})
		}
		if a.rec.cancelPending {
			// Cancelled while mid-admission (between leaving the queue and
			// this publish): now that the sim job ID exists, route it through
			// the normal cancel path next epoch.
			a.rec.cancelPending = false
			a.rec.state = StateCancelling
			d.cancels = append(d.cancels, cancelReq{recID: a.rec.id, simJob: a.simJob})
		} else {
			a.rec.state = StateAdmitted
		}
		d.active = append(d.active, a.rec.id)
	}
	stillActive := d.active[:0]
	noCapTotal := 0
	for _, p := range updates {
		rec := d.records[p.recID]
		rec.pending, rec.queued, rec.running, rec.doneTasks = p.pending, p.queued, p.running, p.doneTasks
		rec.costUC = p.costUC
		if p.planned && !rec.planned {
			rec.planned, rec.plannedSim = true, p.plannedAt
		}
		if p.launched && !rec.launched {
			rec.launched, rec.firstLaunchSim = true, p.firstLaunch
			launches = append(launches, p.firstLaunch-rec.admittedSim)
			d.sm.TenantLaunch.With(rec.tenant).Observe(p.firstLaunch - rec.submittedSim)
		}
		switch {
		case p.cancelled:
			rec.state = StateCancelled
			rec.doneSim = p.doneAt
			newlyCancelled++
			completed = append(completed, d.spanLocked(rec))
			d.sm.TenantE2E.With(rec.tenant).Observe(p.doneAt - rec.submittedSim)
			d.burn.Observe(rec.tenant, obs.SLOE2E, p.doneAt, p.doneAt-rec.submittedSim)
		case p.doneAt > 0 && p.pending+p.queued+p.running == 0:
			// A finished sim job is terminal whatever cancel is pending: a
			// /cancel that raced the last task is a no-op next epoch, and
			// would otherwise leave the record cancelling for good.
			rec.state = StateDone
			rec.doneSim = p.doneAt
			newlyDone++
			completed = append(completed, d.spanLocked(rec))
			d.sm.TenantE2E.With(rec.tenant).Observe(p.doneAt - rec.submittedSim)
			d.burn.Observe(rec.tenant, obs.SLOE2E, p.doneAt, p.doneAt-rec.submittedSim)
		case rec.state == StateCancelling:
			// A cancel is in flight; don't flap the visible state back to
			// running while the next epoch applies it.
		case rec.launched:
			rec.state = StateRunning
		default:
			rec.state = StateAdmitted
			if p.pending > 0 {
				// Admitted, never launched, work still pending: the epoch
				// plan found no capacity for it.
				noCapTotal++
				if len(deferred) < maxDecisionRefs {
					deferred = append(deferred, Deferral{JobRef{rec.id, rec.tenant}, obs.ReasonNoCapacity})
				}
			}
		}
	}
	deferredTotal += noCapTotal
	for _, id := range d.active {
		st := d.records[id].state
		if st != StateDone && st != StateCancelled {
			stillActive = append(stillActive, id)
		}
	}
	d.active = stillActive
	d.tenantCPU = cpu
	d.tenantSpend = spend
	d.epochs++
	queueDepth := len(d.queue)
	tenantCount := len(d.tenants)
	if len(admitted) > 0 || len(cancels) > 0 || len(updates) > 0 ||
		len(shed) > 0 || deferredTotal > 0 {
		// Idle ticks are not recorded; the ring holds epochs that decided
		// something.
		dec := EpochDecision{
			Epoch: epochNum, SimStart: now, SimEnd: simNow,
			WallMS:   ms(stepWall),
			Admitted: admittedRefs, AdmittedCount: admittedTotal,
			Deferred: deferred, DeferredCount: deferredTotal,
			Shed: shed, QueueDepth: queueDepth,
		}
		// Only this goroutine steps the simulator, so LiPS's last record is
		// stable outside simMu; one already shown is an earlier step's.
		if l, ok := d.sch.(*sched.LiPS); ok {
			if r, ok := l.LastEpochStats(); ok && r.Epoch != d.schedEpoch {
				d.schedEpoch = r.Epoch
				dec.SchedView = newSchedView(r)
			}
		}
		d.decisions.add(dec)
	}
	d.mu.Unlock()

	for _, sp := range completed {
		d.spans.Add(sp)
		d.sm.Spans.With(sp.Outcome).Inc()
	}
	d.sm.Epochs.Inc()
	d.sm.QueueDepth.Set(float64(queueDepth))
	d.sm.SimSeconds.Set(simNow)
	d.sm.Tenants.Set(float64(tenantCount))
	if newlyDone > 0 {
		d.sm.JobsDone.Add(float64(newlyDone))
	}
	if newlyCancelled > 0 {
		d.sm.JobsCancelled.Add(float64(newlyCancelled))
	}
	for _, l := range launches {
		d.sm.LaunchSeconds.Observe(l)
	}
	d.sm.SolveShare.Observe(stepWall.Seconds() / d.cfg.EpochWallInterval.Seconds())
	if d.burn.Enabled() {
		for _, ev := range d.burn.Evaluate(simNow) {
			d.sm.AlertTransitions.With(ev.State).Inc()
			attrs := []any{
				obs.LogTenant, ev.Tenant, "slo", ev.SLO, "state", ev.State,
				"objective_sec", ev.ObjectiveSec,
				"burn_short", ev.BurnShort, "burn_long", ev.BurnLong,
				"sim_sec", simNow,
			}
			if ev.State == obs.AlertFiring {
				d.log.Warn("slo alert firing", attrs...)
			} else {
				d.log.Info("slo alert "+ev.State, attrs...)
			}
		}
		// The gauge holds each tenant's worst burn across configured
		// objectives — the page-worthiness signal, not the per-SLO detail
		// (that lives on /alerts).
		worstShort := make(map[string]float64)
		worstLong := make(map[string]float64)
		for _, a := range d.burn.BurnRates() {
			if a.BurnShort > worstShort[a.Tenant] || worstShort[a.Tenant] == 0 {
				worstShort[a.Tenant] = a.BurnShort
			}
			if a.BurnLong > worstLong[a.Tenant] || worstLong[a.Tenant] == 0 {
				worstLong[a.Tenant] = a.BurnLong
			}
		}
		for tenant, b := range worstShort {
			d.sm.BurnRate.With(tenant, obs.WindowShort).Set(b)
			d.sm.BurnRate.With(tenant, obs.WindowLong).Set(worstLong[tenant])
		}
		d.sm.AlertsFiring.Set(float64(d.burn.Firing()))
	}
	if stepWall > d.cfg.EpochWallInterval {
		d.log.Warn("slow epoch",
			obs.LogEpoch, epochNum,
			"step_wall_ms", ms(stepWall),
			"interval_ms", ms(d.cfg.EpochWallInterval),
			"queue_depth", queueDepth)
	}
	if admittedTotal > 0 || newlyDone > 0 || newlyCancelled > 0 {
		d.log.Debug("epoch",
			obs.LogEpoch, epochNum, "sim_sec", simNow,
			"admitted", admittedTotal, "done", newlyDone,
			"cancelled", newlyCancelled, "queue_depth", queueDepth)
	}
	if stepErr != nil {
		return fmt.Errorf("serve: epoch step: %w", stepErr)
	}
	return nil
}

// nextOrigin round-robins submitted inputs over the cluster's stores —
// the serve-mode stand-in for "the tenant uploaded the file somewhere".
// Only the epoch goroutine touches it.
func (d *Daemon) nextOrigin() cluster.StoreID {
	st := d.originRR % len(d.s.C.Stores)
	d.originRR++
	return d.s.C.Stores[st].ID
}

// Churn injects a node-down or node-up fault at the current simulated
// time; the next epoch applies it and the scheduler reconfigures through
// OnNodeDown/OnNodeUp (LiPS translates its warm-start basis).
func (d *Daemon) Churn(node cluster.NodeID, down bool) error {
	kind := sim.FaultNodeUp
	label := "up"
	if down {
		kind = sim.FaultNodeDown
		label = "down"
	}
	d.simMu.Lock()
	err := d.s.InjectFault(sim.Fault{At: d.s.Now(), Kind: kind, Node: node})
	d.simMu.Unlock()
	if err == nil {
		d.sm.Churn.With(label).Inc()
	}
	return err
}
