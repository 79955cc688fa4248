package serve

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/obs"
	"lips/internal/workload"
)

// SubmitRequest is the POST /submit payload. Input archetypes (grep,
// stress1, stress2, wordcount) describe their input by size; the task
// count follows from the 64 MB blocking. The pi archetype has no input
// and names its task count directly.
type SubmitRequest struct {
	Tenant    string `json:"tenant"`
	Name      string `json:"name,omitempty"`
	Archetype string `json:"archetype"`
	// InputMB sizes the input object of an input archetype.
	InputMB float64 `json:"input_mb,omitempty"`
	// AccessFrac is the fraction of each block the job reads (0 = all).
	AccessFrac float64 `json:"access_frac,omitempty"`
	// Tasks is the task count of a no-input (pi) job.
	Tasks int `json:"tasks,omitempty"`
	// CPUSecPerTask overrides the pi archetype's per-task CPU seconds.
	CPUSecPerTask float64 `json:"cpu_sec_per_task,omitempty"`
}

// SubmitResponse answers an accepted submission.
type SubmitResponse struct {
	ID    int    `json:"id"`
	State string `json:"state"`
}

// JobStatus is the GET /status view of one submission. Task counts and
// state are refreshed once per epoch, so they lag the simulator by at
// most one epoch.
type JobStatus struct {
	ID             int     `json:"id"`
	Tenant         string  `json:"tenant"`
	Name           string  `json:"name"`
	Archetype      string  `json:"archetype"`
	State          string  `json:"state"`
	SubmittedSim   float64 `json:"submitted_sim,omitempty"`
	AdmittedSim    float64 `json:"admitted_sim,omitempty"`
	FirstLaunchSim float64 `json:"first_launch_sim,omitempty"`
	DoneSim        float64 `json:"done_sim,omitempty"`
	Pending        int     `json:"pending"`
	Queued         int     `json:"queued"`
	Running        int     `json:"running"`
	DoneTasks      int     `json:"done_tasks"`
}

// JobTrace is the GET /jobs/{id}/trace view: the job's span, its phase
// decomposition, and the end-to-end latency (simulated seconds; -1
// while the job is still in flight).
type JobTrace struct {
	obs.Span
	State         string      `json:"state"`
	AdmittedEpoch int64       `json:"admitted_epoch,omitempty"`
	E2ESim        float64     `json:"e2e_sim"`
	Phases        []obs.Phase `json:"phases"`
}

// EpochsResponse is the GET /debug/epochs view: the retained decision
// ring oldest-first plus how many decisions were ever recorded.
type EpochsResponse struct {
	Total  int64           `json:"total"`
	Epochs []EpochDecision `json:"epochs"`
}

// SpansResponse is the GET /debug/spans view of the completed-span ring.
type SpansResponse struct {
	Total int64      `json:"total"`
	Spans []obs.Span `json:"spans"`
}

// Stats is the GET /stats snapshot of the whole daemon.
type Stats struct {
	SimSeconds float64            `json:"sim_seconds"`
	Epochs     int64              `json:"epochs"`
	QueueDepth int                `json:"queue_depth"`
	Jobs       map[string]int     `json:"jobs"` // count per lifecycle state
	Tenants    int                `json:"tenants"`
	TenantCPU  map[string]float64 `json:"tenant_cpu_sec"`
	Draining   bool               `json:"draining"`
}

// TenantSummary is one row of GET /tenants: the tenant's chargeback
// breakdown, unit economics and lifetime SLO attainment. Cost figures
// come from the epoch loop's ledger copy, so they lag the simulator by
// at most one epoch; microcent fields are exact, dollar fields are the
// same numbers scaled for reading.
type TenantSummary struct {
	Tenant string `json:"tenant"`
	// Jobs counts the tenant's submissions by lifecycle state (absent
	// for the reserved unattributed tenant, which never submits).
	Jobs   map[string]int `json:"jobs,omitempty"`
	CPUSec float64        `json:"cpu_sec"` // accumulated ECU-seconds
	// TotalUC is the tenant's exact chargeback in microcents; TotalUSD is
	// the same number in dollars.
	TotalUC    int64            `json:"total_uc"`
	TotalUSD   float64          `json:"total_usd"`
	Categories map[string]int64 `json:"categories_uc,omitempty"`
	// USDPerDoneJob divides the chargeback over completed submissions
	// (0 until the first completion).
	USDPerDoneJob float64 `json:"usd_per_done_job,omitempty"`
	// BudgetUSD and OverBudget surface the configured dollar cap; an
	// over-budget tenant's queued jobs defer with budget-exhausted.
	BudgetUSD  float64 `json:"budget_usd,omitempty"`
	OverBudget bool    `json:"over_budget,omitempty"`
	// Attainment is the lifetime good/total ratio per configured SLO.
	Attainment []obs.Attainment `json:"slo_attainment,omitempty"`
}

// TenantsResponse is the GET /tenants view, sorted by tenant name.
type TenantsResponse struct {
	Tenants []TenantSummary `json:"tenants"`
}

// TenantDetail is the GET /tenants/{tenant} view: the summary plus the
// tenant's current burn rates, its active alerts, and its most recent
// submissions.
type TenantDetail struct {
	TenantSummary
	// Burn is the tenant's burn rate per SLO as of the last evaluation.
	Burn []obs.Alert `json:"burn,omitempty"`
	// Alerts are the tenant's alerts: active first, then resolved history.
	Alerts []obs.Alert `json:"alerts,omitempty"`
	// Recent lists the tenant's latest submissions, newest first.
	Recent []JobStatus `json:"recent_jobs,omitempty"`
}

// AlertsResponse is the GET /alerts view of the SLO burn-rate engine.
type AlertsResponse struct {
	Enabled bool        `json:"enabled"`
	Firing  int         `json:"firing"`
	Alerts  []obs.Alert `json:"alerts"`
}

// AuditResponse is the GET /audit reconciliation report: the ledger's
// conservation invariants checked to the exact microcent against both
// its own books and the live metric counters. The handler answers 500
// when any check fails, so `curl -f /audit` is a smoke gate.
type AuditResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	SimSeconds float64 `json:"sim_seconds"`
	TotalUC    int64   `json:"total_uc"`
	TotalUSD   float64 `json:"total_usd"`
	// UnattributedJobUC is money charged with no job key (background
	// replication, plan moves); it still lands in a tenant bucket.
	UnattributedJobUC int64            `json:"unattributed_job_uc"`
	Categories        map[string]int64 `json:"categories_uc"`
	Tenants           map[string]int64 `json:"tenants_uc"`
	// TenantSumUC re-adds the tenant totals; MetricTenantUC and
	// MetricCategoryUC sum the lips_cost_microcents_total and
	// lips_sim_cost_microcents_total counter families. All three must
	// equal TotalUC.
	TenantSumUC      int64 `json:"tenant_sum_uc"`
	MetricTenantUC   int64 `json:"metric_tenant_uc"`
	MetricCategoryUC int64 `json:"metric_category_uc"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (d *Daemon) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(d.cfg.RetryAfterSec))
	}
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// Handler returns the daemon's HTTP API mounted alongside the standard
// observability endpoints (/metrics, /progress, /healthz, /readyz,
// /debug/pprof). /readyz reports 503 once draining begins.
//
//	POST /submit            accept a job (202; 429 under load, 503 draining)
//	GET  /status?id=N       one submission's state
//	GET  /jobs/{id}/trace   one submission's span and phase breakdown
//	POST /cancel?id=N       withdraw a submission
//	GET  /stats             daemon-wide snapshot
//	GET  /tenants           per-tenant chargeback, unit economics, SLO attainment
//	GET  /tenants/{tenant}  one tenant: chargeback, burn rates, alerts, recent jobs
//	GET  /alerts            SLO burn-rate alerts (active + resolved history)
//	GET  /audit             exact-microcent ledger reconciliation (500 on drift)
//	GET  /debug/epochs      recent epoch decisions (admitted/deferred/shed)
//	GET  /debug/spans       recent completed spans
//	POST /admin/churn       ?node=N&kind=down|up — inject node churn
func (d *Daemon) Handler() http.Handler {
	mux := obs.MuxReady(d.reg, d.Ready)
	mux.HandleFunc("/submit", d.handleSubmit)
	mux.HandleFunc("/status", d.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/trace", d.handleTrace)
	mux.HandleFunc("/cancel", d.handleCancel)
	mux.HandleFunc("/stats", d.handleStats)
	mux.HandleFunc("GET /tenants", d.handleTenants)
	mux.HandleFunc("GET /tenants/{tenant}", d.handleTenant)
	mux.HandleFunc("GET /alerts", d.handleAlerts)
	mux.HandleFunc("GET /audit", d.handleAudit)
	mux.HandleFunc("GET /debug/epochs", d.handleEpochs)
	mux.HandleFunc("GET /debug/spans", d.handleSpans)
	mux.HandleFunc("/admin/churn", d.handleChurn)
	return mux
}

// Bounds on one submission, so that no single request can exhaust memory
// or overflow the simulator's int32 task index — and on distinct tenants,
// each of which mints metric and ledger children for the process's life.
//
// maxCPUSecPerTask keeps a job's numbers finite and exact: at the caps a
// job demands 2^16 × 1e6 ≈ 6.6e10 ECU-seconds. Its costliest LP
// coefficient, that demand on the fake node at 1e4 mc per ECU-second, is
// ≈ 6.6e14, far from overflowing a float64. No cluster the daemon builds
// prices an ECU-second above m1.medium's 6.39 mc, so the job's CPU bill
// is at most ≈ 4.2e14 µc ($4.2M), four orders of magnitude inside the
// int64 microcents of cost.Money, with room for retries and speculative
// copies.
const (
	maxSubmitBody    = 64 << 10 // bytes of JSON
	maxTasksPerJob   = 1 << 16  // given, or one per 64 MB block of input_mb
	maxCPUSecPerTask = 1e6      // ECU-seconds, cpu_sec_per_task
	maxNameLen       = 64       // bytes, tenant and job name each
	maxTenants       = 1024
)

// validateSubmit turns a request into the job the simulator will be
// given, defaults filled in; admission stamps its name, owner and arrival.
func validateSubmit(req *SubmitRequest) (workload.Job, error) {
	var job workload.Job
	if req.Tenant == "" {
		return job, fmt.Errorf("tenant is required")
	}
	if len(req.Tenant) > maxNameLen || len(req.Name) > maxNameLen {
		return job, fmt.Errorf("tenant and name are limited to %d bytes", maxNameLen)
	}
	a, err := workload.ByName(req.Archetype)
	if err != nil {
		return job, err
	}
	job.Archetype, job.CPUSecPerMB = a.Name, a.CPUSecPerMB()
	if a.HasInput() {
		if req.InputMB <= 0 {
			return job, fmt.Errorf("archetype %q needs input_mb > 0", a.Name)
		}
		if req.Tasks != 0 {
			return job, fmt.Errorf("archetype %q derives tasks from input_mb", a.Name)
		}
		if req.InputMB > maxTasksPerJob*cost.BlockMB {
			return job, fmt.Errorf("input_mb %g is more than %d blocks", req.InputMB, maxTasksPerJob)
		}
		job.InputMB = req.InputMB
	} else {
		if req.Tasks <= 0 {
			return job, fmt.Errorf("archetype %q needs tasks > 0", a.Name)
		}
		if req.Tasks > maxTasksPerJob {
			return job, fmt.Errorf("tasks %d is more than %d", req.Tasks, maxTasksPerJob)
		}
		if req.CPUSecPerTask > maxCPUSecPerTask {
			return job, fmt.Errorf("cpu_sec_per_task %g is more than %g", req.CPUSecPerTask, maxCPUSecPerTask)
		}
		job.NumTasks = req.Tasks
		job.CPUSecPerTask = req.CPUSecPerTask
		if job.CPUSecPerTask <= 0 {
			job.CPUSecPerTask = a.CPUSecPerTask
		}
	}
	if req.AccessFrac < 0 || req.AccessFrac > 1 {
		return job, fmt.Errorf("access_frac %g outside [0, 1]", req.AccessFrac)
	}
	job.AccessFrac = req.AccessFrac
	return job, nil
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&req); err != nil {
		d.writeError(w, http.StatusBadRequest, "bad submit body: %v", err)
		return
	}
	job, err := validateSubmit(&req)
	if err != nil {
		d.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	name := req.Name
	if name == "" {
		name = req.Archetype
	}

	d.mu.Lock()
	if d.tenantJobs[req.Tenant] == nil && len(d.tenantJobs) >= maxTenants {
		d.mu.Unlock()
		d.writeError(w, http.StatusBadRequest, "tenant %q is new and the daemon already knows %d", req.Tenant, maxTenants)
		return
	}
	var decision, shedReason string
	var rec *jobRecord
	switch {
	case d.draining:
		decision, shedReason = "draining", obs.ReasonDraining
	case len(d.queue) >= d.cfg.QueueCap:
		// A full queue always sheds.
		decision, shedReason = "rejected", obs.ReasonQueueCap
	case 2*len(d.queue) >= d.cfg.QueueCap && d.busy.Load():
		// A half-full queue sheds while an epoch is solving — backpressure
		// before breakdown. The flag races the epoch loop by nature:
		// admission control needs a load signal, not a linearizable one.
		decision, shedReason = "rejected", obs.ReasonSolverBackpressure
	default:
		decision = "accepted"
		rec = d.newRecordLocked(req.Tenant, name, job)
	}
	var shedSpan obs.Span
	if shedReason != "" {
		if d.shedCounts == nil {
			d.shedCounts = make(map[string]int)
		}
		d.shedCounts[shedReason]++
		shedSpan = obs.NewSpan(-1)
		shedSpan.Name, shedSpan.Tenant = name, req.Tenant
		shedSpan.Outcome, shedSpan.Reason = obs.OutcomeShed, shedReason
		shedSpan.SubmittedSim, shedSpan.DoneSim = d.simNowLocked(), d.simNowLocked()
	}
	queueDepth := len(d.queue)
	d.mu.Unlock()

	d.sm.Admissions.With(decision).Inc()
	d.sm.QueueDepth.Set(float64(queueDepth))
	d.sm.SubmitSeconds.Observe(time.Since(start).Seconds())
	if shedReason != "" {
		d.spans.Add(shedSpan)
		d.sm.Sheds.With(shedReason).Inc()
		d.sm.Spans.With(obs.OutcomeShed).Inc()
		d.log.Warn("submission shed",
			obs.LogTenant, req.Tenant, "name", name,
			"reason", shedReason, "queue_depth", queueDepth)
	}
	switch decision {
	case "draining":
		d.writeError(w, http.StatusServiceUnavailable, "draining")
	case "rejected":
		d.writeError(w, http.StatusTooManyRequests, "admission queue full")
	default:
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: rec.span.Job, State: StateQueued})
	}
}

// record finds the record a request names by decimal id, and answers the
// 400 or 404 itself when there is none.
func (d *Daemon) record(w http.ResponseWriter, idText string) (*jobRecord, bool) {
	id, err := strconv.Atoi(idText)
	if err != nil {
		d.writeError(w, http.StatusBadRequest, "bad id %q", idText)
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id < 0 || id >= len(d.records) {
		d.writeError(w, http.StatusNotFound, "no job %d", id)
		return nil, false
	}
	return d.records[id], true
}

// statusLocked assembles the /status view of one record: the span's
// milestones with "not yet" as an omitted zero. Callers hold d.mu.
func (d *Daemon) statusLocked(rec *jobRecord) JobStatus {
	sp := &rec.span
	return JobStatus{
		ID: sp.Job, Tenant: sp.Tenant, Name: sp.Name,
		Archetype: rec.job.Archetype, State: rec.state,
		SubmittedSim: sp.SubmittedSim, AdmittedSim: max(sp.AdmittedSim, 0),
		FirstLaunchSim: max(sp.FirstLaunchSim, 0), DoneSim: max(sp.DoneSim, 0),
		Pending: rec.pending, Queued: rec.queued,
		Running: rec.running, DoneTasks: rec.doneTasks,
	}
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec, ok := d.record(w, r.URL.Query().Get("id"))
	if !ok {
		return
	}
	d.mu.Lock()
	st := d.statusLocked(rec)
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// tenantSummaryLocked assembles one tenant's chargeback row. Callers
// hold d.mu; the burn engine carries its own lock.
func (d *Daemon) tenantSummaryLocked(tenant string) TenantSummary {
	ts := TenantSummary{Tenant: tenant, CPUSec: d.tenantCPU[tenant]}
	var total cost.Money
	if spend := d.tenantSpend[tenant]; len(spend) > 0 {
		ts.Categories = make(map[string]int64, len(spend))
		for c, m := range spend {
			ts.Categories[string(c)] = int64(m)
			total += m
		}
	}
	ts.TotalUC, ts.TotalUSD = int64(total), total.ToDollars()
	ts.Jobs = maps.Clone(d.tenantJobs[tenant])
	if doneJobs := ts.Jobs[StateDone]; doneJobs > 0 {
		ts.USDPerDoneJob = total.ToDollars() / float64(doneJobs)
	}
	if limit, ok := d.budgets[tenant]; ok {
		ts.BudgetUSD = limit.ToDollars()
		ts.OverBudget = d.overBudgetLocked(tenant)
	}
	ts.Attainment = d.burn.Attainments(tenant)
	return ts
}

// handleTenants serves GET /tenants: every tenant that ever submitted or
// was ever charged (including the reserved unattributed bucket), sorted.
func (d *Daemon) handleTenants(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	sorted := make([]string, 0, len(d.tenantJobs)+len(d.tenantSpend))
	for tn := range d.tenantJobs {
		sorted = append(sorted, tn)
	}
	for tn := range d.tenantSpend {
		if d.tenantJobs[tn] == nil {
			sorted = append(sorted, tn)
		}
	}
	sort.Strings(sorted)
	resp := TenantsResponse{Tenants: make([]TenantSummary, 0, len(sorted))}
	for _, tn := range sorted {
		resp.Tenants = append(resp.Tenants, d.tenantSummaryLocked(tn))
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// maxRecentJobs bounds the recent-submission list on /tenants/{tenant}.
const maxRecentJobs = 32

// handleTenant serves GET /tenants/{tenant}: the summary plus burn
// rates, alerts and recent submissions for one tenant.
func (d *Daemon) handleTenant(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	d.mu.Lock()
	if d.tenantJobs[tenant] == nil && d.tenantSpend[tenant] == nil {
		d.mu.Unlock()
		d.writeError(w, http.StatusNotFound, "no tenant %q", tenant)
		return
	}
	det := TenantDetail{TenantSummary: d.tenantSummaryLocked(tenant)}
	for i := len(d.records) - 1; i >= 0 && len(det.Recent) < maxRecentJobs; i-- {
		if rec := d.records[i]; rec.span.Tenant == tenant {
			det.Recent = append(det.Recent, d.statusLocked(rec))
		}
	}
	d.mu.Unlock()
	for _, a := range d.burn.BurnRates() {
		if a.Tenant == tenant {
			det.Burn = append(det.Burn, a)
		}
	}
	for _, a := range d.burn.Alerts() {
		if a.Tenant == tenant {
			det.Alerts = append(det.Alerts, a)
		}
	}
	writeJSON(w, http.StatusOK, det)
}

// handleAlerts serves GET /alerts: active burn-rate alerts followed by
// the retained resolved history.
func (d *Daemon) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	resp := AlertsResponse{
		Enabled: d.burn.Enabled(),
		Firing:  d.burn.Firing(),
		Alerts:  d.burn.Alerts(),
	}
	if resp.Alerts == nil {
		resp.Alerts = []obs.Alert{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAudit serves GET /audit: the ledger's conservation invariants
// checked to the exact microcent, cross-checked against the live metric
// counters. The ledger snapshot and the metric reads happen under the
// simulator lock so no epoch can slip between them.
func (d *Daemon) handleAudit(w http.ResponseWriter, _ *http.Request) {
	d.simMu.Lock()
	l := d.s.Ledger
	rerr := l.Reconcile()
	resp := AuditResponse{
		SimSeconds:        d.s.Now(),
		TotalUC:           int64(l.Total()),
		TotalUSD:          l.Total().ToDollars(),
		UnattributedJobUC: int64(l.Unattributed()),
		Categories:        make(map[string]int64, len(cost.Categories)),
		Tenants:           make(map[string]int64),
	}
	for _, c := range cost.Categories {
		resp.Categories[string(c)] = int64(l.Category(c))
	}
	for _, tn := range l.Tenants() {
		uc := int64(l.TenantTotal(tn))
		resp.Tenants[tn] = uc
		resp.TenantSumUC += uc
	}
	resp.MetricTenantUC = int64(d.reg.Sum(obs.MCost))
	resp.MetricCategoryUC = int64(d.reg.Sum(obs.MSimCost))
	d.simMu.Unlock()
	resp.OK = rerr == nil && resp.TenantSumUC == resp.TotalUC &&
		resp.MetricTenantUC == resp.TotalUC && resp.MetricCategoryUC == resp.TotalUC
	switch {
	case rerr != nil:
		resp.Error = rerr.Error()
	case !resp.OK:
		resp.Error = "ledger and metric totals disagree"
	}
	code := http.StatusOK
	if !resp.OK {
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, resp)
}

// handleTrace serves GET /jobs/{id}/trace: the live record's span,
// decomposed into phases.
func (d *Daemon) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec, ok := d.record(w, r.PathValue("id"))
	if !ok {
		return
	}
	d.mu.Lock()
	tr := JobTrace{Span: rec.span, State: rec.state, AdmittedEpoch: rec.span.Epoch}
	d.mu.Unlock()
	tr.E2ESim = tr.Span.E2ESim()
	tr.Phases = tr.Span.Phases()
	writeJSON(w, http.StatusOK, tr)
}

// handleEpochs serves GET /debug/epochs: the recent epoch decisions,
// oldest first.
func (d *Daemon) handleEpochs(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	resp := EpochsResponse{Total: d.decisions.total, Epochs: d.decisions.snapshot()}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleSpans serves GET /debug/spans: the completed-span ring.
func (d *Daemon) handleSpans(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, SpansResponse{Total: d.spans.Total(), Spans: d.spans.Snapshot()})
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	rec, ok := d.record(w, r.URL.Query().Get("id"))
	if !ok {
		return
	}
	d.mu.Lock()
	switch rec.state {
	case StateQueued:
		// Still in the admission queue: withdraw before it ever reaches
		// the simulator. If it is not in the queue the epoch has it
		// mid-admission (batch taken, not yet published) — cancelling with
		// no simulator job yet, which publish routes into the cancel path
		// once the job exists.
		if i := slices.Index(d.queue, rec.span.Job); i >= 0 {
			d.queue = slices.Delete(d.queue, i, i+1)
			d.transitionLocked(rec, StateCancelled, d.simNowLocked())
		} else {
			d.transitionLocked(rec, StateCancelling, d.simNowLocked())
		}
	case StateAdmitted, StateRunning:
		d.cancels = append(d.cancels, rec)
		d.transitionLocked(rec, StateCancelling, d.simNowLocked())
	}
	state := rec.state
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, SubmitResponse{ID: rec.span.Job, State: state})
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	st := Stats{
		SimSeconds: d.simNowLocked(),
		Epochs:     d.epochs,
		QueueDepth: len(d.queue),
		Jobs:       maps.Clone(d.jobs),
		Tenants:    len(d.tenantJobs),
		TenantCPU:  maps.Clone(d.tenantCPU),
		Draining:   d.draining,
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (d *Daemon) handleChurn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	node, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		d.writeError(w, http.StatusBadRequest, "bad node %q", r.URL.Query().Get("node"))
		return
	}
	kind := r.URL.Query().Get("kind")
	if kind != "down" && kind != "up" {
		d.writeError(w, http.StatusBadRequest, "kind must be down or up, got %q", kind)
		return
	}
	if err := d.Churn(cluster.NodeID(node), kind == "down"); err != nil {
		d.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"node": strconv.Itoa(node), "kind": kind})
}
