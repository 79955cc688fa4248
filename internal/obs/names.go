package obs

import (
	"slices"
	"sync"
	"sync/atomic"

	"lips/internal/cost"
	"lips/internal/trace"
)

// Metric families, one vocabulary for every producer. The lips_sim_*,
// lips_cost_*, lips_sched_* and lips_lp_* families have one producer
// each, the observers of SimMetrics and SchedMetrics: the simulator and
// the LiPS scheduler call them live, the trace replay sink (TraceSink)
// calls them for each event it reads, so a Prometheus scrape of a
// running simulation and `lips-trace -metrics` over its JSONL trace line
// up byte for byte (the wall-clock families only when the trace was
// recorded with timings). Naming scheme (documented in DESIGN.md §7):
// lips_<layer>_<what>, base units (seconds, microcents, megabytes),
// counters suffixed _total.
const (
	// Simulator layer: task lifecycle counters, sampled state gauges,
	// per-category cost counters.
	MSimClockSeconds    = "lips_sim_clock_seconds"
	MSimTasks           = "lips_sim_tasks"
	MSimFreeSlots       = "lips_sim_free_slots"
	MSimLiveSlots       = "lips_sim_live_slots"
	MSimBusySlotSeconds = "lips_sim_busy_slot_seconds"
	MSimCost            = "lips_sim_cost_microcents_total"
	MCost               = "lips_cost_microcents_total"
	MSimEnqueued        = "lips_sim_tasks_enqueued_total"
	MSimLaunched        = "lips_sim_tasks_launched_total"
	MSimDone            = "lips_sim_tasks_done_total"
	MSimKilled          = "lips_sim_tasks_killed_total"
	MSimMoves           = "lips_sim_blocks_moved_total"
	MSimMovedMB         = "lips_sim_moved_megabytes_total"
	MSimFaults          = "lips_sim_faults_injected_total"

	// Scheduler layer (LiPS epochs).
	MSchedEpochs       = "lips_sched_epochs_total"
	MSchedEpochNumber  = "lips_sched_epoch_number"
	MSchedDeferred     = "lips_sched_deferred_tasks"
	MSchedLaunched     = "lips_sched_tasks_launched_total"
	MSchedIters        = "lips_sched_epoch_iterations"
	MSchedSolveSeconds = "lips_sched_epoch_solve_seconds"

	// LP solver layer.
	MLPSolves         = "lips_lp_solves_total"
	MLPIters          = "lips_lp_iterations_total"
	MLPPhase1         = "lips_lp_phase1_iterations_total"
	MLPWarmStarts     = "lips_lp_warm_starts_total"
	MLPRefactor       = "lips_lp_refactorizations_total"
	MLPSolveSeconds   = "lips_lp_solve_seconds_total"
	MLPPricingSeconds = "lips_lp_pricing_seconds_total"
	MLPFactorSeconds  = "lips_lp_factor_seconds_total"
	MLPFtranSeconds   = "lips_lp_ftran_seconds_total"
	MLPBtranSeconds   = "lips_lp_btran_seconds_total"
	MLPColGenRounds   = "lips_lp_colgen_rounds_total"
	MLPColGenColumns  = "lips_lp_colgen_columns_total"

	// Service layer (the lips-serve daemon).
	MServeQueueDepth    = "lips_serve_queue_depth"
	MServeTenants       = "lips_serve_tenants"
	MServeSimSeconds    = "lips_serve_sim_seconds"
	MServeEpochs        = "lips_serve_epochs_total"
	MServeAdmissions    = "lips_serve_admission_total"
	MServeIllegalMoves  = "lips_serve_illegal_transitions_total"
	MServeChurn         = "lips_serve_churn_total"
	MServeSubmitSeconds = "lips_serve_submit_latency_seconds"
	MServeLaunchSeconds = "lips_serve_first_launch_seconds"

	// Span-derived serve families (PR 9): per-tenant latency histograms
	// in simulated seconds, the span outcome counter, and the share of
	// each epoch's wall budget spent inside the solver step.
	MServeQueueWait    = "lips_serve_tenant_queue_wait_seconds"
	MServeTenantLaunch = "lips_serve_tenant_first_launch_seconds"
	MServeTenantE2E    = "lips_serve_tenant_e2e_seconds"
	MServeSpans        = "lips_serve_spans_total"
	MServeSolveShare   = "lips_serve_epoch_solve_share"

	// SLO burn-rate engine (PR 10): per-tenant burn-rate gauges over the
	// short and long rolling windows, alert state transitions, and the
	// count of currently firing alerts.
	MServeBurnRate         = "lips_serve_slo_burn_rate"
	MServeAlertTransitions = "lips_serve_slo_alert_transitions_total"
	MServeAlertsFiring     = "lips_serve_slo_alerts_firing"
)

// Label vocabularies, pre-registered so expositions show every series
// at zero from the first scrape (and so the trace replay registers the
// identical family shapes).
var (
	// Localities mirrors internal/sim Locality.String values.
	Localities = []string{"node-local", "zone-local", "remote", "no-input"}
	// TaskStates mirrors internal/sim's TaskState lifecycle.
	TaskStates = []string{"pending", "queued", "running", "done"}
	// KillReasons are the simulator's kill reasons; trace.KillCategory
	// says what each bills.
	KillReasons = []string{"timeout", "speculative", "node-crash", "store-loss", "cancel"}
	// MoveReasons are the simulator's block-relocation reasons
	// (trace.MoveCategory); the balancer's "balance" moves come from
	// lips-sim -balance and lips-balance only and are not pre-registered.
	MoveReasons = []string{"plan", "re-replicate", "re-materialize"}
	// FaultKinds mirrors internal/sim FaultKind.String values.
	FaultKinds = []string{"node-down", "node-up", "store-loss", "slowdown"}
	// AdmissionDecisions label lips_serve_admission_total: accepted, or
	// the typed reason the submission was shed for.
	AdmissionDecisions = []string{"accepted", ReasonQueueCap, ReasonSolverBackpressure, ReasonDraining}
	// AlertStates label lips_serve_slo_alert_transitions_total: the
	// burn-rate state machine's pending → firing → resolved lifecycle.
	AlertStates = []string{AlertPending, AlertFiring, AlertResolved}
)

// SimMetrics bundles the simulator's handles. Like SchedMetrics, they
// move only through its observers, which the simulator's chokepoints
// call live and TraceSink calls for each event it reads, so a replayed
// trace reproduces the live values by construction. Counters are exact;
// the gauges move on the simulated-time sampling cadence and so lag by
// at most one interval. The hot observers (launches, completions,
// charges, samples) use children resolved at registration, a tenant's on
// its first charge; none allocates.
type SimMetrics struct {
	clock, busySlot, freeSlots, liveSlots *Gauge
	tasks                                 [4]*Gauge // in TaskStates order
	enqueued, done, movedMB               *Counter
	launched                              []*Counter   // in Localities order
	killed, moves, faults                 *CounterVec  // by reason / reason / kind
	cost                                  []*Counter   // by cost.Category.Index
	tenantCost                            *CounterVec2 // by tenant, category

	mu    sync.Mutex
	lines map[string]*CostLine // by tenant
}

// CostLine is one tenant's lips_cost_microcents_total children, by
// cost.Category.Index. A child is created on the tenant's first nonzero
// charge in its category, so the exposition lists only the pairs that
// moved. CostLine hands out one line per tenant and registry, which
// every run sharing the registry charges through.
type CostLine struct {
	tenant string
	cells  []atomic.Pointer[Counter]
}

// RegisterSim registers (or fetches) the simulator families. Calling it
// again on the same registry returns the identical bundle.
func RegisterSim(r *Registry) *SimMetrics {
	return r.bundle("sim", func() any { return registerSim(r) }).(*SimMetrics)
}

func registerSim(r *Registry) *SimMetrics {
	m := &SimMetrics{
		clock:     r.Gauge(MSimClockSeconds, "Simulated clock at the last gauge refresh, in seconds."),
		busySlot:  r.Gauge(MSimBusySlotSeconds, "Cumulative busy slot-seconds at the last gauge refresh."),
		freeSlots: r.Gauge(MSimFreeSlots, "Free task slots on live nodes at the last gauge refresh."),
		liveSlots: r.Gauge(MSimLiveSlots, "Total task slots on live nodes at the last gauge refresh."),
		enqueued:  r.Counter(MSimEnqueued, "Tasks pinned to a node queue."),
		done:      r.Counter(MSimDone, "Task completions."),
		movedMB:   r.Counter(MSimMovedMB, "Megabytes relocated between stores."),
		launched:  make([]*Counter, len(Localities)),
		killed:    r.CounterVec(MSimKilled, "Attempts killed, by reason.", "reason"),
		moves:     r.CounterVec(MSimMoves, "Blocks relocated between stores, by reason.", "reason"),
		faults:    r.CounterVec(MSimFaults, "Injected faults, by kind.", "kind"),
		cost:      make([]*Counter, len(cost.Categories)),
		tenantCost: r.CounterVec2(MCost, "Chargeback ledger in exact microcents, by owning tenant and category.",
			"tenant", "category"),
		lines: make(map[string]*CostLine),
	}
	tasks := r.GaugeVec(MSimTasks, "Tasks of arrived jobs by lifecycle state at the last gauge refresh.", "state")
	for i, s := range TaskStates {
		m.tasks[i] = tasks.With(s)
	}
	launchVec := r.CounterVec(MSimLaunched, "Attempt launches, by input locality.", "locality")
	for i, l := range Localities {
		m.launched[i] = launchVec.With(l)
	}
	costVec := r.CounterVec(MSimCost, "Ledger charges in exact microcents, by category.", "category")
	for i, c := range cost.Categories {
		m.cost[i] = costVec.With(string(c))
	}
	for vec, vocab := range map[*CounterVec][]string{m.killed: KillReasons, m.moves: MoveReasons, m.faults: FaultKinds} {
		for _, label := range vocab {
			vec.With(label)
		}
	}
	return m
}

// Enqueue counts a task pinned to a node queue.
func (m *SimMetrics) Enqueue() { m.enqueued.Inc() }

// Launch counts an attempt launch at input locality loc, one of
// Localities, through LaunchAt; it ignores any other name.
func (m *SimMetrics) Launch(loc string) {
	if i := slices.Index(Localities, loc); i >= 0 {
		m.LaunchAt(i)
	}
}

// LaunchAt counts an attempt launch at the input locality Localities[i].
func (m *SimMetrics) LaunchAt(i int) { m.launched[i].Inc() }

// Done counts a task completion.
func (m *SimMetrics) Done() { m.done.Inc() }

// Kill counts an attempt killed for reason.
func (m *SimMetrics) Kill(reason string) { m.killed.With(reason).Inc() }

// Move counts a block of mb megabytes relocated for reason.
func (m *SimMetrics) Move(reason string, mb float64) {
	m.moves.With(reason).Inc()
	m.movedMB.Add(mb)
}

// Fault counts an injected fault of kind.
func (m *SimMetrics) Fault(kind string) { m.faults.With(kind).Inc() }

// CostLine returns the tenant's chargeback line, the same one on every
// call: resolve it once, then charge through ChargeLine.
func (m *SimMetrics) CostLine(tenant string) *CostLine {
	m.mu.Lock()
	defer m.mu.Unlock()
	ln := m.lines[tenant]
	if ln == nil {
		ln = &CostLine{tenant: tenant, cells: make([]atomic.Pointer[Counter], len(cost.Categories))}
		m.lines[tenant] = ln
	}
	return ln
}

// Charge adds uc microcents to category cat and, when tenant is set, to
// the tenant's chargeback line (the replay leaves it empty for a job its
// run header does not list): CostLine, then ChargeLine.
func (m *SimMetrics) Charge(tenant string, cat cost.Category, uc int64) {
	var ln *CostLine
	if tenant != "" {
		ln = m.CostLine(tenant)
	}
	m.ChargeLine(ln, cat, uc)
}

// ChargeLine adds uc microcents to category cat and, when ln is not nil,
// to ln's tenant. A zero charge moves nothing, on either side: an event
// cannot show one. The ledger itself still books it.
func (m *SimMetrics) ChargeLine(ln *CostLine, cat cost.Category, uc int64) {
	if uc == 0 {
		return
	}
	i := cat.Index()
	m.cost[i].Add(float64(uc))
	if ln == nil {
		return
	}
	c := ln.cells[i].Load()
	if c == nil {
		// With returns the family's one child for the pair, so two
		// callers racing here store the same pointer.
		c = m.tenantCost.With(ln.tenant, string(cat))
		ln.cells[i].Store(c)
	}
	c.Add(float64(uc))
}

// Sample sets the gauges to one snapshot taken at simulated time t.
func (m *SimMetrics) Sample(t float64, s *trace.SampleInfo) {
	m.clock.Set(t)
	m.busySlot.Set(s.BusySlotSec)
	m.freeSlots.Set(float64(s.FreeSlots))
	m.liveSlots.Set(float64(s.LiveSlots))
	for i, n := range [...]int{s.Pending, s.Queued, s.Running, s.Done} {
		m.tasks[i].Set(float64(n))
	}
}

// SchedMetrics bundles the LiPS epoch-loop handles and the lips_lp_*
// families its epochs' solves fill (the solver publishes nothing itself).
// They move only in ObserveEpoch, which the live scheduler and the trace
// replay both call, so a replayed trace reproduces the live values by
// construction. The pricing share of a solve is
// lips_lp_pricing_seconds_total / lips_lp_solve_seconds_total.
type SchedMetrics struct {
	epochs, launched         *Counter
	epochNumber, deferred    *Gauge
	iterations, solveSeconds *Histogram

	solves, lpIters, phase1, warmStarts, refactorizations *Counter
	lpSolveSec, pricingSec, factorSec, ftranSec, btranSec *Counter
	colgenRounds, colgenColumns                           *Counter
}

// RegisterSched registers (or fetches) the scheduler and LP families.
// Calling it again on the same registry returns the identical bundle.
func RegisterSched(r *Registry) *SchedMetrics {
	return r.bundle("sched", func() any { return registerSched(r) }).(*SchedMetrics)
}

func registerSched(r *Registry) *SchedMetrics {
	return &SchedMetrics{
		epochs:      r.Counter(MSchedEpochs, "Scheduling epochs with queued work (LP solves attempted)."),
		launched:    r.Counter(MSchedLaunched, "Tasks enqueued by epoch plans."),
		epochNumber: r.Gauge(MSchedEpochNumber, "Number of the most recent scheduling epoch."),
		deferred:    r.Gauge(MSchedDeferred, "Tasks the last epoch's LP parked on the fake overflow node."),
		iterations: r.Histogram(MSchedIters, "Simplex iterations per epoch solve.",
			[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}),
		solveSeconds: r.Histogram(MSchedSolveSeconds, "Wall-clock seconds per epoch LP solve (machine-dependent).",
			// 100µs … 10s in half-decade steps.
			[]float64{1e-4, 3.16e-4, 1e-3, 3.16e-3, 0.01, 0.0316, 0.1, 0.316, 1, 3.16, 10}),

		solves:           r.Counter(MLPSolves, "LP solves."),
		lpIters:          r.Counter(MLPIters, "Simplex iterations across all solves (both phases)."),
		phase1:           r.Counter(MLPPhase1, "Phase-1 simplex iterations across all solves."),
		warmStarts:       r.Counter(MLPWarmStarts, "Solves that accepted a warm-start basis."),
		refactorizations: r.Counter(MLPRefactor, "From-scratch basis factorizations."),
		lpSolveSec:       r.Counter(MLPSolveSeconds, "Wall-clock seconds of the epoch LP solves (under column generation, building the restricted master included)."),
		pricingSec:       r.Counter(MLPPricingSeconds, "Wall-clock seconds in the pricing step."),
		factorSec:        r.Counter(MLPFactorSeconds, "Wall-clock seconds factorizing the basis and appending eta updates (FTRAN/BTRAN excluded)."),
		ftranSec:         r.Counter(MLPFtranSeconds, "Wall-clock seconds in FTRAN: entering columns and basic values."),
		btranSec:         r.Counter(MLPBtranSeconds, "Wall-clock seconds in BTRAN: duals and Devex pivot rows."),
		colgenRounds:     r.Counter(MLPColGenRounds, "Column-generation pricing rounds across all SolveColGen runs."),
		colgenColumns:    r.Counter(MLPColGenColumns, "Columns added by column-generation pricing oracles."),
	}
}

// ObserveEpoch folds one epoch event into the scheduler and LP families.
// The wall-clock ones fill only when the event carries timings: the live
// scheduler always passes them, a trace only has them when it was
// recorded with TraceTimings. An abandoned solve (trace.StatusError)
// counts its solves, but not as a finished pricing loop.
func (m *SchedMetrics) ObserveEpoch(ep *trace.EpochInfo) {
	m.epochs.Inc()
	m.epochNumber.Set(float64(ep.Epoch))
	m.deferred.Set(float64(ep.Deferred))
	m.launched.Add(float64(ep.Launched))
	m.iterations.Observe(float64(ep.Iters))
	if ep.SolveMS > 0 {
		m.solveSeconds.Observe(ep.SolveMS / 1e3)
	}

	m.solves.Add(float64(ep.Solves))
	m.lpIters.Add(float64(ep.Iters))
	m.phase1.Add(float64(ep.Phase1))
	m.warmStarts.Add(float64(ep.WarmStarts))
	m.refactorizations.Add(float64(ep.Refactorizations))
	m.lpSolveSec.Add(ep.SolveMS / 1e3)
	m.pricingSec.Add(ep.PricingMS / 1e3)
	m.factorSec.Add(ep.FactorMS / 1e3)
	m.ftranSec.Add(ep.FtranMS / 1e3)
	m.btranSec.Add(ep.BtranMS / 1e3)
	if ep.Status != trace.StatusError {
		m.colgenRounds.Add(float64(ep.ColGenRounds))
		m.colgenColumns.Add(float64(ep.ColGenColumns))
	}
}

// ServeMetrics bundles the lips-serve daemon's handles. Submit latency is
// wall-clock (the daemon's SLO); first-launch latency is simulated time
// from admission to the job's first task launch, the delay the epoch
// planner imposes. The per-tenant histograms are observed exactly once
// per completed span (QueueWait when the job was admitted, TenantLaunch
// when it launched, TenantE2E on every done/cancelled terminal), so
// their counts reconcile with the Spans counter, which counts only those
// terminals.
type ServeMetrics struct {
	QueueDepth, Tenants, SimSeconds *Gauge
	Epochs                          *Counter
	IllegalTransitions              *Counter    // lifecycle moves refused; 0 unless there is a bug
	Admissions, Churn               *CounterVec // by decision (accepted or shed reason) / by kind
	SubmitSeconds, LaunchSeconds    *Histogram

	QueueWait, TenantLaunch, TenantE2E *HistogramVec // by tenant, sim seconds
	Spans                              *CounterVec   // by outcome
	SolveShare                         *Histogram    // step wall / epoch wall budget

	BurnRate         *GaugeVec2  // by tenant, window (short/long)
	AlertTransitions *CounterVec // by state entered
	AlertsFiring     *Gauge
}

// RegisterServe registers (or fetches) the daemon families. Calling it
// again on the same registry returns the identical bundle.
func RegisterServe(r *Registry) *ServeMetrics {
	return r.bundle("serve", func() any { return registerServe(r) }).(*ServeMetrics)
}

func registerServe(r *Registry) *ServeMetrics {
	m := &ServeMetrics{
		QueueDepth: r.Gauge(MServeQueueDepth, "Jobs accepted but not yet admitted into the simulation."),
		Tenants:    r.Gauge(MServeTenants, "Distinct tenants seen since the daemon started."),
		SimSeconds: r.Gauge(MServeSimSeconds, "Simulated clock of the serving cluster, in seconds."),
		Epochs:     r.Counter(MServeEpochs, "Serve epochs driven (each advances the simulation one epoch)."),
		IllegalTransitions: r.Counter(MServeIllegalMoves,
			"Job state changes the lifecycle table does not allow, refused and logged; any at all is a daemon bug."),
		Admissions: r.CounterVec(MServeAdmissions, "Submission admission decisions: accepted, or the typed reason it was shed.", "decision"),
		Churn:      r.CounterVec(MServeChurn, "Node churn events applied via the admin API.", "kind"),
		SubmitSeconds: r.Histogram(MServeSubmitSeconds, "Wall-clock seconds from submit receipt to admission decision.",
			// 100µs … 10s in half-decade steps, the submit-SLO range.
			[]float64{1e-4, 3.16e-4, 1e-3, 3.16e-3, 0.01, 0.0316, 0.1, 0.316, 1, 3.16, 10}),
		LaunchSeconds: r.Histogram(MServeLaunchSeconds, "Simulated seconds from admission to a job's first task launch.",
			ExpBuckets(1, 2, 14)), // 1s … 8192s, epoch-scale queueing delays
		QueueWait: r.HistogramVec(MServeQueueWait, "Simulated seconds a job waited in the admission queue, by tenant.",
			"tenant", ExpBuckets(1, 2, 14)),
		TenantLaunch: r.HistogramVec(MServeTenantLaunch, "Simulated seconds from submission to first task launch, by tenant.",
			"tenant", ExpBuckets(1, 2, 14)),
		TenantE2E: r.HistogramVec(MServeTenantE2E, "Simulated seconds from submission to a terminal state, by tenant.",
			"tenant", ExpBuckets(1, 2, 16)),
		Spans: r.CounterVec(MServeSpans, "Spans of admitted submissions that ended, by outcome (done or cancelled).", "outcome"),
		SolveShare: r.Histogram(MServeSolveShare, "Fraction of the epoch wall budget spent stepping the simulator (solver included).",
			[]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 5, 10}),
	}
	for _, d := range AdmissionDecisions {
		m.Admissions.With(d)
	}
	for _, k := range []string{"down", "up"} {
		m.Churn.With(k)
	}
	// A shed submission is counted once, in Admissions by its reason.
	for _, o := range []string{OutcomeDone, OutcomeCancelled} {
		m.Spans.With(o)
	}
	m.BurnRate = r.GaugeVec2(MServeBurnRate, "SLO error-budget burn rate at the last evaluation, by tenant and window.",
		"tenant", "window")
	m.AlertTransitions = r.CounterVec(MServeAlertTransitions, "SLO alert state-machine transitions, by state entered.", "state")
	m.AlertsFiring = r.Gauge(MServeAlertsFiring, "SLO alerts currently in the firing state.")
	for _, s := range AlertStates {
		m.AlertTransitions.With(s)
	}
	return m
}
