package serve

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/trace"
)

// epochSnap is what snapshot takes out of the admission state for one step.
type epochSnap struct {
	cancels []*jobRecord // applied before anything is admitted
	batch   []*jobRecord // off the queue, in tenant-fair order
	active  []*jobRecord // admitted by an earlier step and unfinished
	// deferred names the queue's leftovers (the first maxDecisionRefs of
	// deferredTotal); shed counts the 429/503s since the last step.
	deferred      []Deferral
	deferredTotal int
	shed          map[string]int
}

// jobUpdate is one job after the step, in the simulator's frame: the span
// is sim.JobSpan's, so its Job, submitted and admitted stamps are the
// simulator's and publish keeps the record's own.
type jobUpdate struct {
	rec                            *jobRecord
	admitErr                       error // AddJob refused the record: no span, no counts
	span                           obs.Span
	pending, queued, running, done int
}

// simResult is what simulate brings back from under simMu. The first
// admitted entries of jobs are this step's batch, in batch order; the
// rest are the active set.
type simResult struct {
	start, end float64 // simulated clock at admission and after the step
	wall       time.Duration
	jobs       []jobUpdate
	admitted   int
	cpu        map[string]float64
	spend      map[string]map[cost.Category]cost.Money
	stepErr    error
}

// epochSummary is what publish decided, for report's gauges and logs.
type epochSummary struct {
	epoch                     int64
	queueDepth, tenants       int
	admitted, done, cancelled int
	transitions               []obs.Alert // SLO alert state changes
}

// Step runs one serve epoch, synchronously: snapshot the admission state,
// simulate one epoch of cluster time, publish the outcome into the
// records, report it. The ticker calls it once per wall interval; a test
// or tool may call it by hand instead. Callers are serialised, so two
// epochs never interleave. A Step by hand admits everything queued.
func (d *Daemon) Step() error { return d.step(time.Time{}) }

// step is Step with the time the next epoch's admission closes (the
// loop's next tick), zero when the next epoch is stepped by hand.
func (d *Daemon) step(nextCut time.Time) error {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.busy.Store(true) // admission control sheds a half-full queue meanwhile
	defer d.busy.Store(false)

	snap := d.snapshot()
	start := time.Now()
	res, err := d.simulate(snap)
	res.wall = time.Since(start)
	if err != nil {
		return err
	}
	d.report(d.publish(snap, res, nextCut), res)
	if res.stepErr != nil {
		return fmt.Errorf("serve: epoch step: %w", res.stepErr)
	}
	return nil
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

// takeBatchLocked removes up to AdmitPerEpoch of the first n queued
// records in tenant-fair order: tenants are served cheapest-first by
// accumulated ECU-seconds, FIFO within a tenant. Tenants that
// exhausted their dollar budget (overBudget, for every tenant in the
// queue) are passed over entirely and their records stay queued. The
// remainder keeps its submission order.
func (d *Daemon) takeBatchLocked(n int) (batch []*jobRecord, overBudget map[string]bool) {
	type ranked struct {
		pos   int
		usage float64
	}
	rank := make([]ranked, 0, n)
	overBudget = make(map[string]bool)
	for i, id := range d.queue[:n] {
		tenant := d.records[id].span.Tenant
		over, seen := overBudget[tenant]
		if !seen {
			over = d.overBudgetLocked(tenant)
			overBudget[tenant] = over
		}
		if over {
			continue
		}
		rank = append(rank, ranked{pos: i, usage: d.tenantCPU[tenant]})
	}
	// Stable, so equal usage falls back to submission order and the batch
	// is the same on every run.
	slices.SortStableFunc(rank, func(a, b ranked) int { return cmp.Compare(a.usage, b.usage) })
	rank = rank[:min(d.cfg.AdmitPerEpoch, len(rank))]
	selected := make([]bool, len(d.queue))
	batch = make([]*jobRecord, len(rank))
	for i, r := range rank {
		selected[r.pos] = true
		batch[i] = d.records[d.queue[r.pos]]
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

// snapshot takes, under d.mu, everything the step needs from the
// admission state: the pending cancels, a tenant-fair batch of the
// records accepted before the cut, the queue-side deferrals, the shed
// counts and the active set. Until publish the cut stays at or before
// the snapshot, so a submission the batch missed is stamped with the
// next epoch's clock.
func (d *Daemon) snapshot() epochSnap {
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := epochSnap{cancels: d.cancels, shed: d.shedCounts}
	d.cancels, d.shedCounts = nil, nil
	eligible := len(d.queue)
	if !d.cut.IsZero() {
		eligible = sort.Search(len(d.queue), func(i int) bool {
			return !d.records[d.queue[i]].accepted.Before(d.cut)
		})
	}
	if now := time.Now(); d.cut.IsZero() || now.Before(d.cut) {
		d.cut = now
	}
	batch, overBudget := d.takeBatchLocked(eligible)
	snap.batch = batch
	// Eligible leftovers either sat out on an exhausted tenant budget or
	// lost this epoch's fair-share ranking to the AdmitPerEpoch bound —
	// the queue-side classes of typed deferrals. They still head the
	// queue; what follows them arrived after the cut.
	left := eligible - len(batch)
	for _, id := range d.queue[:min(left, maxDecisionRefs)] {
		tenant, reason := d.records[id].span.Tenant, obs.ReasonFairShare
		if overBudget[tenant] {
			reason = obs.ReasonBudgetExhausted
		}
		snap.deferred = append(snap.deferred, Deferral{JobRef{id, tenant}, reason})
	}
	snap.deferredTotal = left
	snap.active = slices.Clone(d.active)
	return snap
}

// simulate does, under d.simMu, everything that touches the simulator:
// the cancels, the batch's AddJobs, one epoch of simulated time (where the
// LiPS LP solves) and reading every live job back. It holds no d.mu, so of
// a record it touches only what no handler does: name, tenant and job,
// fixed at submission, and simJob, which is Step's alone. Step times
// exactly this call: it is the decision ring's wall_ms.
func (d *Daemon) simulate(snap epochSnap) (res simResult, err error) {
	d.simMu.Lock()
	defer d.simMu.Unlock()
	for _, rec := range snap.cancels {
		if err := d.s.CancelJob(rec.simJob); err != nil {
			return res, fmt.Errorf("serve: cancel job %d: %w", rec.simJob, err)
		}
	}
	res.start, res.admitted = d.s.Now(), len(snap.batch)
	res.jobs = make([]jobUpdate, 0, len(snap.batch)+len(snap.active))
	for _, rec := range snap.batch {
		job := rec.job
		job.Name, job.User, job.ArrivalSec = rec.span.Name, rec.span.Tenant, res.start
		var obj *hdfs.DataObject
		if job.InputMB > 0 {
			obj = &hdfs.DataObject{Name: job.Name, SizeMB: job.InputMB, Origin: d.nextOrigin()}
		}
		simJob, err := d.s.AddJob(job, obj)
		if err == nil {
			rec.simJob = simJob
		}
		res.jobs = append(res.jobs, jobUpdate{rec: rec, admitErr: err})
	}
	// A record cancelled this very epoch appears only once: the active
	// list still holds it, the cancel list carried the same record.
	for _, rec := range snap.active {
		res.jobs = append(res.jobs, jobUpdate{rec: rec})
	}
	res.stepErr = d.s.StepUntil(res.start + d.cfg.EpochSimSec)

	for i := range res.jobs {
		if u := &res.jobs[i]; u.admitErr == nil {
			u.span = d.s.JobSpan(u.rec.simJob)
			u.pending, u.queued, u.running, u.done = d.s.JobStateCounts(u.rec.simJob)
		}
	}
	res.cpu = d.s.UserCPU()
	res.spend = make(map[string]map[cost.Category]cost.Money)
	for _, tn := range d.s.Ledger.Tenants() {
		res.spend[tn] = d.s.Ledger.TenantBreakdown(tn)
	}
	res.end = d.s.Now()
	return res, nil
}

// nextOrigin round-robins submitted inputs over the cluster's stores —
// the serve-mode stand-in for "the tenant uploaded the file somewhere".
func (d *Daemon) nextOrigin() cluster.StoreID {
	st := d.originRR % len(d.s.C.Stores)
	d.originRR++
	return d.s.C.Stores[st].ID
}

// publish moves the records, under d.mu, to where the step left their
// jobs: every state change goes through transitionLocked, the epoch's
// decision joins the /debug/epochs ring, and the SLO engine evaluates at
// the epoch's end. The obs calls inside the critical section are
// lock-free atomics (plus a family mutex on first child creation) and
// never take d.mu, so no ordering hazard. The clock moves on with the
// cut: the next epoch's admission closes at nextCut, or now if the step
// ran past it, and a hand-stepped one closes at its own snapshot.
func (d *Daemon) publish(snap epochSnap, res simResult, nextCut time.Time) epochSummary {
	d.mu.Lock()
	defer d.mu.Unlock()
	sum := epochSummary{epoch: d.epochs + 1}
	doneBefore, cancelledBefore := d.jobs[StateDone], d.jobs[StateCancelled]
	admittedRefs := make([]JobRef, 0, min(res.admitted, maxDecisionRefs))
	for _, u := range res.jobs[:res.admitted] {
		rec, sp := u.rec, &u.rec.span
		if u.admitErr != nil {
			// A malformed job that slipped past validateSubmit: fail the
			// record, not the daemon.
			d.transitionLocked(rec, StateCancelled, res.start)
			continue
		}
		sp.AdmittedSim, sp.Epoch = res.start, sum.epoch
		d.sm.QueueWait.With(sp.Tenant).Observe(res.start - sp.SubmittedSim)
		d.burn.Observe(sp.Tenant, obs.SLOQueueWait, res.start, res.start-sp.SubmittedSim)
		sum.admitted++
		if len(admittedRefs) < maxDecisionRefs {
			admittedRefs = append(admittedRefs, JobRef{sp.Job, sp.Tenant})
		}
		if rec.state == StateCancelling {
			// Cancelled mid-admission (between leaving the queue and this
			// publish): now that the sim job ID exists, route it through
			// the normal cancel path next epoch.
			d.cancels = append(d.cancels, rec)
		} else {
			d.transitionLocked(rec, StateAdmitted, res.start)
		}
		d.active = append(d.active, rec)
	}
	deferred, deferredTotal := snap.deferred, snap.deferredTotal
	for _, u := range res.jobs {
		if u.admitErr != nil {
			continue
		}
		rec, sp := u.rec, &u.rec.span
		rec.pending, rec.queued, rec.running, rec.doneTasks = u.pending, u.queued, u.running, u.done
		sp.CostUC, sp.PlannedSim = u.span.CostUC, u.span.PlannedSim
		if u.span.FirstLaunchSim >= 0 && sp.FirstLaunchSim < 0 {
			sp.FirstLaunchSim = u.span.FirstLaunchSim
			d.sm.LaunchSeconds.Observe(sp.FirstLaunchSim - sp.AdmittedSim)
			d.sm.TenantLaunch.With(sp.Tenant).Observe(sp.FirstLaunchSim - sp.SubmittedSim)
		}
		switch {
		case u.span.Outcome == obs.OutcomeCancelled:
			d.transitionLocked(rec, StateCancelled, u.span.DoneSim)
		case u.span.Outcome == obs.OutcomeDone:
			// A finished sim job is terminal whatever cancel is pending: a
			// /cancel that raced the last task is a no-op next epoch, and
			// would otherwise leave the record cancelling for good.
			d.transitionLocked(rec, StateDone, u.span.DoneSim)
		case rec.state == StateCancelling:
			// A cancel is in flight; don't flap the visible state back to
			// running while the next epoch applies it.
		case sp.FirstLaunchSim >= 0:
			if rec.state == StateAdmitted {
				d.transitionLocked(rec, StateRunning, sp.FirstLaunchSim)
			}
		case u.pending > 0:
			// Admitted, never launched, work still pending: the epoch
			// plan found no capacity for it.
			deferredTotal++
			if len(deferred) < maxDecisionRefs {
				deferred = append(deferred, Deferral{JobRef{sp.Job, sp.Tenant}, obs.ReasonNoCapacity})
			}
		}
	}
	d.active = slices.DeleteFunc(d.active, func(rec *jobRecord) bool { return terminal(rec.state) })
	d.tenantCPU, d.tenantSpend = res.cpu, res.spend
	d.epochs++
	d.cut = nextCut
	if now := time.Now(); !nextCut.IsZero() && nextCut.Before(now) {
		d.cut = now
	}
	sum.queueDepth, sum.tenants = len(d.queue), len(d.tenantJobs)
	sum.done, sum.cancelled = d.jobs[StateDone]-doneBefore, d.jobs[StateCancelled]-cancelledBefore
	if len(res.jobs) > 0 || len(snap.cancels) > 0 || len(snap.shed) > 0 || deferredTotal > 0 {
		// Idle ticks are not recorded; the ring holds epochs that decided
		// something.
		dec := EpochDecision{
			Epoch: sum.epoch, SimStart: res.start, SimEnd: res.end,
			WallMS:   trace.MS(res.wall),
			Admitted: admittedRefs, AdmittedCount: sum.admitted,
			Deferred: deferred, DeferredCount: deferredTotal,
			Shed: snap.shed, QueueDepth: sum.queueDepth,
		}
		// Steps are serialised, so LiPS's last record is stable outside
		// simMu; one already shown is an earlier step's.
		if l, ok := d.sch.(*sched.LiPS); ok {
			if r, ok := l.LastEpochStats(); ok && r.Epoch != d.schedEpoch {
				d.schedEpoch = r.Epoch
				dec.Sched = r.TraceInfo(l.Name(), true)
			}
		}
		d.decisions.add(dec)
	}
	sum.transitions = d.evaluateSLOLocked(res.end)
	return sum
}

// evaluateSLOLocked evaluates the SLO engine at simulated time t and sets
// the SLO families from what it leaves, in one d.mu hold, so /alerts,
// /tenants/{tenant} and a scrape always read one engine state. It returns
// the alert transitions. Each tenant's burn gauge holds its worst burn
// across objectives — the page-worthiness signal, not the per-SLO detail
// (that lives on /alerts).
func (d *Daemon) evaluateSLOLocked(t float64) []obs.Alert {
	if !d.burn.Enabled() {
		return nil
	}
	transitions := d.burn.Evaluate(t)
	for _, ev := range transitions {
		d.sm.AlertTransitions.With(ev.State).Inc()
	}
	d.sm.AlertsFiring.Set(float64(d.burn.Firing()))
	rates := d.burn.BurnRates() // a tenant's series are adjacent
	for i := 0; i < len(rates); {
		tenant, short, long := rates[i].Tenant, 0.0, 0.0
		for ; i < len(rates) && rates[i].Tenant == tenant; i++ {
			short, long = max(short, rates[i].BurnShort), max(long, rates[i].BurnLong)
		}
		d.sm.BurnRate.With(tenant, obs.WindowShort).Set(short)
		d.sm.BurnRate.With(tenant, obs.WindowLong).Set(long)
	}
	return transitions
}

// report tells the operator about the step, holding no lock: the epoch
// gauges, and log lines for the step and for the SLO alert transitions
// publish made.
func (d *Daemon) report(sum epochSummary, res simResult) {
	d.sm.Epochs.Inc()
	d.sm.QueueDepth.Set(float64(sum.queueDepth))
	d.sm.SimSeconds.Set(res.end)
	d.sm.Tenants.Set(float64(sum.tenants))
	d.sm.SolveShare.Observe(res.wall.Seconds() / d.cfg.EpochWallInterval.Seconds())
	for _, ev := range sum.transitions {
		attrs := []any{
			obs.LogTenant, ev.Tenant, "slo", ev.SLO, "state", ev.State,
			"objective_sec", ev.ObjectiveSec,
			"burn_short", ev.BurnShort, "burn_long", ev.BurnLong,
			"sim_sec", res.end,
		}
		if ev.State == obs.AlertFiring {
			d.log.Warn("slo alert firing", attrs...)
		} else {
			d.log.Info("slo alert "+ev.State, attrs...)
		}
	}
	if res.wall > d.cfg.EpochWallInterval {
		d.log.Warn("slow epoch",
			obs.LogEpoch, sum.epoch,
			"step_wall_ms", trace.MS(res.wall),
			"interval_ms", trace.MS(d.cfg.EpochWallInterval),
			"queue_depth", sum.queueDepth)
	}
	if sum.admitted > 0 || sum.done > 0 || sum.cancelled > 0 {
		d.log.Debug("epoch",
			obs.LogEpoch, sum.epoch, "sim_sec", res.end,
			"admitted", sum.admitted, "done", sum.done,
			"cancelled", sum.cancelled, "queue_depth", sum.queueDepth)
	}
}
