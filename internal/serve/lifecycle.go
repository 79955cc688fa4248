package serve

import (
	"fmt"
	"slices"
	"time"

	"lips/internal/obs"
	"lips/internal/workload"
)

// Job lifecycle states as reported by /status.
const (
	StateQueued     = "queued"     // accepted, waiting for admission
	StateAdmitted   = "admitted"   // in the simulator, nothing launched yet
	StateRunning    = "running"    // at least one task has launched
	StateDone       = "done"       // every task completed
	StateCancelling = "cancelling" // cancel requested, not yet applied
	StateCancelled  = "cancelled"  // withdrawn
)

// lifecycle is the whole job state machine: the states a record may move
// to from each state. done and cancelled have no row — they are terminal.
// A record that is cancelling before it has a simulator job was cancelled
// mid-admission; publish hands it to the cancel list once the job exists.
var lifecycle = map[string][]string{
	StateQueued:     {StateAdmitted, StateCancelling, StateCancelled},
	StateAdmitted:   {StateRunning, StateDone, StateCancelling, StateCancelled},
	StateRunning:    {StateDone, StateCancelling, StateCancelled},
	StateCancelling: {StateDone, StateCancelled},
}

func terminal(state string) bool { return state == StateDone || state == StateCancelled }

// jobRecord is the daemon's view of one submission, guarded by Daemon.mu.
// The span is the only copy of the job's identity (Job is the record ID),
// milestones, admitting epoch and cost: /status, /jobs/{id}/trace and the
// span ring all read it. Step publishes simulator progress into it once
// per epoch, so reads are cheap and at most one epoch stale.
type jobRecord struct {
	span   obs.Span
	job    workload.Job // as validated; name, owner and arrival are stamped at admission
	state  string       // written by transitionLocked only
	simJob int          // -1 until admitted; only Step touches it
	// accepted is the wall time of the submission, which the epoch cut
	// compares against; it never decreases along the queue.
	accepted time.Time

	pending, queued, running, doneTasks int
}

// newRecordLocked appends a queued record for an accepted submission.
func (d *Daemon) newRecordLocked(tenant, name string, job workload.Job) *jobRecord {
	sp := obs.NewSpan(len(d.records))
	sp.Name, sp.Tenant = fmt.Sprintf("%s-%d", name, sp.Job), tenant
	now := time.Now()
	sp.SubmittedSim = d.simAtLocked(now)
	rec := &jobRecord{span: sp, job: job, state: StateQueued, simJob: -1, accepted: now}
	d.records = append(d.records, rec)
	d.queue = append(d.queue, sp.Job)
	if d.tenantJobs[tenant] == nil {
		d.tenantJobs[tenant] = make(map[string]int)
	}
	d.countLocked(rec, +1)
	return rec
}

// countLocked moves the per-state and per-tenant-per-state counts behind
// /stats and /tenants by one record; a state nobody is in has no entry.
func (d *Daemon) countLocked(rec *jobRecord, by int) {
	for _, m := range []map[string]int{d.jobs, d.tenantJobs[rec.span.Tenant]} {
		if m[rec.state] += by; m[rec.state] == 0 {
			delete(m, rec.state)
		}
	}
}

// transitionLocked is the only writer of a record's state. A move the
// table does not list is a bug: it panics under go test, and in production
// is refused, logged and counted. A move into done or cancelled stamps the
// span's end at atSim (other moves ignore it) and does, exactly once per
// record, everything a finished job owes: the span ring, the outcome
// counter, the tenant's end-to-end histogram and SLO observation, and the
// done/cancelled counter. None of those take d.mu.
func (d *Daemon) transitionLocked(rec *jobRecord, to string, atSim float64) {
	if !slices.Contains(lifecycle[rec.state], to) {
		if d.strict {
			panic(fmt.Sprintf("serve: job %d: illegal transition %s → %s", rec.span.Job, rec.state, to))
		}
		d.sm.IllegalTransitions.Inc()
		d.log.Error("illegal job transition refused",
			obs.LogJob, rec.span.Job, obs.LogTenant, rec.span.Tenant, "from", rec.state, "to", to)
		return
	}
	d.countLocked(rec, -1)
	rec.state = to
	d.countLocked(rec, +1)
	if !terminal(to) {
		return
	}
	rec.span.DoneSim = atSim
	if to == StateDone {
		rec.span.Outcome = obs.OutcomeDone
		d.sm.JobsDone.Inc()
	} else {
		rec.span.Outcome = obs.OutcomeCancelled
		d.sm.JobsCancelled.Inc()
	}
	d.spans.Add(rec.span)
	d.sm.Spans.With(rec.span.Outcome).Inc()
	e2e := atSim - rec.span.SubmittedSim
	d.sm.TenantE2E.With(rec.span.Tenant).Observe(e2e)
	d.burn.Observe(rec.span.Tenant, obs.SLOE2E, atSim, e2e)
}
