package trace

import (
	"fmt"

	"lips/internal/cost"
)

// Tenant is who owns a charge: the job's user, or cost.UnattributedTenant
// for money no single job caused (job < 0) and for jobs without a user.
func Tenant(job int, user string) string {
	if job < 0 || user == "" {
		return cost.UnattributedTenant
	}
	return user
}

// JobTenant resolves a charge's tenant from the run header's job→user
// table by Tenant's rule. ok is false when the header does not list the
// job — jobs added after the header was written (Sim.AddJob), or no
// header at all.
func (r *RunInfo) JobTenant(job int) (tenant string, ok bool) {
	if job < 0 {
		return Tenant(job, ""), true
	}
	if r == nil || job >= len(r.JobUsers) {
		return "", false
	}
	return Tenant(job, r.JobUsers[job]), true
}

// Charge is one ledger booking recovered from an event. Job is -1 for
// money no single job caused (block moves and repairs).
type Charge struct {
	Job int
	Cat cost.Category
	UC  int64
}

// Charges returns the bookings an event carries, nil for kinds that bill
// nothing. A done event splits into its CPU part and, when nonzero, its
// transfer part; a kill bills its reason's category and a move its
// reason's, never to a job. Kills and moves that billed nothing carry no
// booking.
func Charges(e Event) ([]Charge, error) {
	var ch Charge
	switch e.Kind {
	case KindDone:
		t := e.Task
		if t.XferUC > t.CostUC {
			return nil, fmt.Errorf("done j%d/t%d: transfer %d exceeds total %d", t.Job, t.Task, t.XferUC, t.CostUC)
		}
		chs := []Charge{{Job: t.Job, Cat: cost.CatCPU, UC: t.CostUC - t.XferUC}}
		if t.XferUC > 0 {
			chs = append(chs, Charge{Job: t.Job, Cat: cost.CatTransfer, UC: t.XferUC})
		}
		return chs, nil
	case KindKill:
		r, ok := ParseKillReason(e.Task.Reason)
		if !ok {
			return nil, fmt.Errorf("kill j%d/t%d: unknown reason %q", e.Task.Job, e.Task.Task, e.Task.Reason)
		}
		ch = Charge{e.Task.Job, r.Category(), e.Task.CostUC}
	case KindMove:
		r, ok := ParseMoveReason(e.Move.Reason)
		if !ok {
			return nil, fmt.Errorf("move %d/%d: unknown reason %q", e.Move.Object, e.Move.Block, e.Move.Reason)
		}
		ch = Charge{-1, r.Category(), e.Move.CostUC}
	}
	if ch.UC == 0 {
		return nil, nil
	}
	return []Charge{ch}, nil
}
