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
// A submission's life is the table in lifecycle.go, and transitionLocked
// is the only code that moves a record through it. One epoch is Step,
// whose callers — the ticker, or a test stepping by hand — run one at a
// time, in four parts: snapshot, under d.mu, takes the pending cancels
// and a tenant-fair batch off the admission queue; simulate, under
// d.simMu, applies them and advances simulated time by one epoch
// (sim.StepUntil — this is where the LiPS LP solves); publish, under d.mu
// again, moves the records to where their jobs got to; report, holding
// nothing, sets gauges and evaluates SLO burn. No solver work ever holds
// d.mu, so the submit path's latency is independent of epoch solve time.
// Admission control sheds load with 429 + Retry-After when the queue is
// full, or at half-full while a Step is running; draining shutdown
// answers 503.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/obs"
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
	// Logger receives structured lifecycle, shed and slow-epoch events.
	// nil selects a no-op logger, keeping the hot paths silent.
	Logger *slog.Logger
	// EpochRing bounds the /debug/epochs decision ring. Default 128.
	EpochRing int
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
	return c
}

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

	// spans is the ring of the last 1024 completed spans (done,
	// cancelled, shed). It has its own lock and never takes d.mu.
	spans *obs.Spans

	// burn is the SLO burn-rate engine (own lock, never takes d.mu);
	// disabled when no objective is configured. budgets holds the
	// per-tenant dollar caps converted to exact microcents, immutable
	// after New.
	burn    *obs.BurnEngine
	budgets map[string]cost.Money

	// mu guards the admission state: records, queue, cancels, active set,
	// tenant bookkeeping and the draining flag. Never held during solver
	// work.
	mu      sync.Mutex
	records []*jobRecord
	queue   []int        // record IDs awaiting admission, submission order
	cancels []*jobRecord // cancel requested, simulator job to withdraw
	active  []*jobRecord // admitted and not yet finished
	// jobs counts records per state and tenantJobs per tenant per state,
	// kept by transitionLocked so /stats and /tenants never rescan history;
	// tenantJobs also is the set of tenants that ever submitted.
	jobs       map[string]int
	tenantJobs map[string]map[string]int
	tenantCPU  map[string]float64 // ECU-seconds per tenant, last epoch's copy
	// tenantSpend is the chargeback ledger's tenant×category view, copied
	// from the simulator once per epoch (so /tenants and the budget gate
	// never touch simMu and lag by at most one epoch).
	tenantSpend map[string]map[cost.Category]cost.Money
	draining    bool
	epochs      int64
	loopErr     error
	decisions   *decisionRing  // /debug/epochs ring
	shedCounts  map[string]int // 429/503 sheds since the last recorded epoch

	// cut closes the next epoch's admission: a submission accepted at or
	// after it waits for the epoch after, and simNowLocked already reads
	// that epoch's start. The loop sets it to the next tick's time, a Step
	// holds it at its snapshot until it publishes, and it is zero while
	// nothing steps.
	cut time.Time

	// simMu guards the simulator; busy is set for the span of an epoch,
	// which is all the admission path wants to know about the solver.
	simMu sync.Mutex
	busy  atomic.Bool

	// stepMu serialises Step's callers and guards these two.
	stepMu     sync.Mutex
	originRR   int // round-robin origin store for submitted inputs
	schedEpoch int // scheduler epoch the decision ring last showed

	// strict makes an illegal lifecycle transition panic: set under go
	// test, where it is a bug to find, not a fault to survive.
	strict bool

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
		spans:       obs.NewSpans(0),
		burn:        obs.NewBurnEngine(slos...),
		budgets:     budgets,
		jobs:        make(map[string]int),
		tenantJobs:  make(map[string]map[string]int),
		tenantCPU:   make(map[string]float64),
		tenantSpend: make(map[string]map[cost.Category]cost.Money),
		decisions:   newDecisionRing(cfg.EpochRing),
		stop:        make(chan struct{}),
		doneCh:      make(chan struct{}),
		strict:      testing.Testing(),
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

// simNowLocked returns the simulated clock: the start of the epoch that
// would admit a submission accepted now.
func (d *Daemon) simNowLocked() float64 { return d.simAtLocked(time.Now()) }

// simAtLocked is simNowLocked for a submission accepted at wall time at.
// Past the cut that is the epoch after the next one to publish, so a
// submission's clock never depends on how long the running epoch takes.
func (d *Daemon) simAtLocked(at time.Time) float64 {
	epochs := d.epochs
	if !d.cut.IsZero() && !at.Before(d.cut) {
		epochs++
	}
	return float64(epochs) * d.cfg.EpochSimSec
}

func (d *Daemon) setCut(at time.Time) {
	d.mu.Lock()
	d.cut = at
	d.mu.Unlock()
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

// loop steps once per tick. Each epoch admits what was accepted before
// its tick, not before the moment this goroutine got to run: how late it
// wakes must not decide which epoch a submission lands in.
func (d *Daemon) loop() {
	defer close(d.doneCh)
	t := time.NewTicker(d.cfg.EpochWallInterval)
	defer t.Stop()
	d.setCut(time.Now().Add(d.cfg.EpochWallInterval))
	defer d.setCut(time.Time{})
	for {
		select {
		case <-d.stop:
			return
		case tick := <-t.C:
			if err := d.step(tick.Add(d.cfg.EpochWallInterval)); err != nil {
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

// Churn injects a node-down or node-up fault at the current simulated
// time; the next epoch applies it and the scheduler reconfigures through
// OnNodeDown/OnNodeUp.
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
