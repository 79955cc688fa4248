package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/workload"
)

// ServiceRow summarizes one scheduler's behaviour under the service
// regime: an open-loop stream of submissions into a live run (the
// lips-serve operating mode), with a fraction of jobs cancelled mid-run.
type ServiceRow struct {
	Scheduler string
	Jobs      int
	Cancelled int
	// MeanQueueWaitSec is the mean submission-to-first-plan latency in
	// simulated seconds over completed jobs — how long a job waited
	// before any scheduler epoch pinned one of its tasks (the span's
	// queue-wait + plan-wait segment).
	MeanQueueWaitSec float64
	// MeanLaunchSec is the mean submission-to-first-launch latency in
	// simulated seconds over completed jobs.
	MeanLaunchSec float64
	// DrainSec is when the last job finished.
	DrainSec float64
	Cost     cost.Money
	// Tenants is the chargeback breakdown: each tenant's exact share of
	// Cost, in the ledger's canonical (sorted) tenant order. The sum is
	// verified against Cost when the row is built.
	Tenants []TenantSpend
}

// TenantSpend is one tenant's line in a row's chargeback breakdown.
type TenantSpend struct {
	Tenant string
	Cost   cost.Money
}

// ServiceResult compares schedulers under the streaming regime.
type ServiceResult struct {
	Rows []ServiceRow
}

// Render formats the comparison as an aligned table.
func (r *ServiceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %10s %10s %12s %10s %12s\n",
		"scheduler", "jobs", "cancelled", "queue(s)", "launch(s)", "drain(s)", "cost")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %6d %10d %10.1f %12.1f %10.0f %12s\n",
			row.Scheduler, row.Jobs, row.Cancelled, row.MeanQueueWaitSec,
			row.MeanLaunchSec, row.DrainSec, row.Cost)
		if len(row.Tenants) > 0 {
			fmt.Fprintf(&b, "%-12s   chargeback:", "")
			for _, ts := range row.Tenants {
				fmt.Fprintf(&b, " %s=%s", ts.Tenant, ts.Cost)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// Service runs the serve-mode regime in-process: jobs stream into a live
// simulation at 60 s epoch boundaries (exactly how the lips-serve daemon
// feeds its simulator), a tenth of them are cancelled one epoch after
// submission, and the run is then stepped until it drains. Everything is
// seeded, so the table is reproducible — the batch-harness counterpart of
// the serve section of scripts/smoke.sh, which drives a real lips-serve.
func Service(cfg Config) (*ServiceResult, error) {
	cfg = cfg.withDefaults()
	const epoch = 60.0
	jobs, perEpoch := 40, 4
	if cfg.Quick {
		jobs, perEpoch = 12, 3
	}
	res := &ServiceResult{}
	for _, m := range []runner{lips(epoch), fair()} {
		c := cluster.Paper20(0.5)
		rng := rand.New(rand.NewSource(cfg.Seed))
		scheduler := m.make()
		// The daemon's defaults, not the roster's batch options.
		s := sim.New(c, &workload.Workload{}, nil, scheduler,
			cfg.simOptions(sim.Options{}, "service "+m.label))
		if err := s.Start(); err != nil {
			return nil, fmt.Errorf("service %s: %w", m.label, err)
		}
		row := ServiceRow{Scheduler: m.label, Jobs: jobs}
		var cancelQueue []int
		submitted := 0
		for e := 0; submitted < jobs; e++ {
			// Cancels land one epoch after submission, like a tenant
			// withdrawing a job it just queued.
			for _, j := range cancelQueue {
				if err := s.CancelJob(j); err != nil {
					return nil, fmt.Errorf("service %s: cancel: %w", m.label, err)
				}
				row.Cancelled++
			}
			cancelQueue = cancelQueue[:0]
			for i := 0; i < perEpoch && submitted < jobs; i++ {
				sizeMB := float64(4+rng.Intn(12)) * 64
				origin := cluster.StoreID(rng.Intn(len(c.Stores)))
				j, err := s.AddJob(workload.Job{
					Name:      fmt.Sprintf("svc-%d", submitted),
					User:      fmt.Sprintf("tenant-%d", submitted%3),
					Archetype: workload.Grep.Name, AccessFrac: 1,
					CPUSecPerMB: workload.Grep.CPUSecPerMB(),
				}, &hdfs.DataObject{Name: fmt.Sprintf("svc-%d", submitted), SizeMB: sizeMB, Origin: origin})
				if err != nil {
					return nil, fmt.Errorf("service %s: submit: %w", m.label, err)
				}
				submitted++
				if submitted%10 == 0 {
					cancelQueue = append(cancelQueue, j)
				}
			}
			if err := s.StepUntil(float64(e+1) * epoch); err != nil {
				return nil, fmt.Errorf("service %s: %w", m.label, err)
			}
		}
		for _, j := range cancelQueue {
			if err := s.CancelJob(j); err != nil {
				return nil, fmt.Errorf("service %s: cancel: %w", m.label, err)
			}
			row.Cancelled++
		}
		for i := 1; !s.Drained(); i++ {
			if err := s.StepUntil(float64(jobs/perEpoch+i) * epoch); err != nil {
				return nil, fmt.Errorf("service %s: %w", m.label, err)
			}
			if i > 100000 {
				return nil, fmt.Errorf("service %s: never drained", m.label)
			}
		}
		if l, ok := scheduler.(*sched.LiPS); ok && l.Err != nil {
			return nil, fmt.Errorf("service %s: %w", m.label, l.Err)
		}
		// Latency means come from the per-job spans, so this table and
		// the daemon's /jobs/{id}/trace agree on phase definitions; a
		// differential test pins the span fields against the job's trace
		// events and JobDoneAt.
		var launchSum, queueSum float64
		launched, planned := 0, 0
		for j := 0; j < s.NumJobs(); j++ {
			if s.JobCancelled(j) {
				continue
			}
			sp := s.JobSpan(j)
			if sp.FirstLaunchSim >= 0 {
				launchSum += sp.FirstLaunchSim - sp.SubmittedSim
				launched++
			}
			if sp.PlannedSim >= 0 {
				queueSum += sp.PlannedSim - sp.SubmittedSim
				planned++
			}
			if sp.DoneSim > row.DrainSec {
				row.DrainSec = sp.DoneSim
			}
		}
		if launched > 0 {
			row.MeanLaunchSec = launchSum / float64(launched)
		}
		if planned > 0 {
			row.MeanQueueWaitSec = queueSum / float64(planned)
		}
		r := s.CurrentResult()
		row.Cost = r.Cost.Total()
		// Chargeback lines, with the conservation invariant enforced at
		// the harness level: tenant shares must sum to the run total.
		var tenantSum cost.Money
		for _, tn := range r.Cost.Tenants() {
			spend := r.Cost.TenantTotal(tn)
			tenantSum += spend
			if spend > 0 { // zero-dollar lines (e.g. the _system bucket) add noise
				row.Tenants = append(row.Tenants, TenantSpend{Tenant: tn, Cost: spend})
			}
		}
		if tenantSum != row.Cost {
			return nil, fmt.Errorf("service %s: tenant chargebacks sum to %s, ledger total is %s",
				m.label, tenantSum, row.Cost)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
