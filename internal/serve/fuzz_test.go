package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/sim"
)

// fuzzOp is one move of a fuzzed scenario.
type fuzzOp struct {
	kind byte          // 's'ubmit, 'c'ancel, 'm'id-step cancel, node 'd'own, node 'u'p, 'e'poch (one Step)
	req  SubmitRequest // submit
	n    int           // cancels: which accepted id, modulo how many there are; churn: the node
}

func (o fuzzOp) String() string {
	switch o.kind {
	case 's':
		return fmt.Sprintf("submit %s %s in=%g tasks=%d cpu=%g", o.req.Tenant, o.req.Archetype, o.req.InputMB, o.req.Tasks, o.req.CPUSecPerTask)
	case 'c':
		return fmt.Sprintf("cancel #%d", o.n)
	case 'm':
		return fmt.Sprintf("step, cancel #%d landing mid-step", o.n)
	case 'e':
		return "step"
	}
	return fmt.Sprintf("node %d %c", o.n, o.kind)
}

const fuzzNodes = 20 // cluster.Paper20

// fuzzOps draws a scenario from the seed: forty epochs, before each a few
// submits (hog's budget runs out with its first finished job), cancels of
// a random earlier id — between steps or in the middle of one — and node
// churn.
func fuzzOps(seed int64) []fuzzOp {
	rng := rand.New(rand.NewSource(seed))
	tenants := []string{"alice", "bob", "carol", "hog"}
	var ops []fuzzOp
	for epoch := 0; epoch < 40; epoch++ {
		for n := rng.Intn(5); n > 0; n-- {
			switch p := rng.Intn(10); {
			case p < 6:
				req := SubmitRequest{Tenant: tenants[rng.Intn(len(tenants))]}
				if rng.Intn(3) == 0 {
					req.Archetype, req.Tasks, req.CPUSecPerTask = "pi", 1+rng.Intn(8), float64(50*(1+rng.Intn(8)))
				} else {
					req.Archetype, req.InputMB = "grep", float64(64*(1+rng.Intn(10)))
				}
				ops = append(ops, fuzzOp{kind: 's', req: req})
			case p < 8:
				ops = append(ops, fuzzOp{kind: 'c', n: rng.Intn(1 << 16)})
			case p < 9:
				ops = append(ops, fuzzOp{kind: 'd', n: rng.Intn(fuzzNodes)})
			default:
				ops = append(ops, fuzzOp{kind: 'u', n: rng.Intn(fuzzNodes)})
			}
		}
		if rng.Intn(4) == 0 {
			ops = append(ops, fuzzOp{kind: 'm', n: rng.Intn(1 << 16)})
		} else {
			ops = append(ops, fuzzOp{kind: 'e'})
		}
	}
	return ops
}

// checkStep holds what must be true after every Step: a record whose
// simulator job has nothing left to run is terminal, a cancelling record
// is on the list the next step withdraws, and the counts transitionLocked
// keeps equal a recount of every record.
func checkStep(d *Daemon) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.simMu.Lock()
	defer d.simMu.Unlock()
	jobs, tenantJobs := map[string]int{}, map[string]map[string]int{}
	for _, rec := range d.records {
		if rec.simJob >= 0 && d.s.JobRemaining(rec.simJob) == 0 && !terminal(rec.state) {
			return fmt.Errorf("job %d is %s though its simulator job %d has finished", rec.span.Job, rec.state, rec.simJob)
		}
		if rec.state == StateCancelling && !slices.Contains(d.cancels, rec) {
			return fmt.Errorf("job %d is cancelling and no step will cancel it", rec.span.Job)
		}
		jobs[rec.state]++
		if tenantJobs[rec.span.Tenant] == nil {
			tenantJobs[rec.span.Tenant] = map[string]int{}
		}
		tenantJobs[rec.span.Tenant][rec.state]++
	}
	if !reflect.DeepEqual(jobs, d.jobs) || !reflect.DeepEqual(tenantJobs, d.tenantJobs) {
		return fmt.Errorf("counts %v / %v, a recount says %v / %v", d.jobs, d.tenantJobs, jobs, tenantJobs)
	}
	return nil
}

// checkDrained holds what must be true once the daemon is idle.
func checkDrained(d *Daemon, h http.Handler) error {
	code, body := call(h, http.MethodGet, "/audit", nil)
	var audit AuditResponse
	if err := json.Unmarshal(body, &audit); err != nil || code != http.StatusOK {
		return fmt.Errorf("/audit: %d %s", code, body)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var costUC int64
	var e2eCount uint64
	for _, rec := range d.records {
		sp := rec.span
		if !terminal(rec.state) || sp.Outcome != rec.state {
			return fmt.Errorf("job %d ended %s with outcome %q", sp.Job, rec.state, sp.Outcome)
		}
		costUC += sp.CostUC
		last := sp.SubmittedSim
		for _, at := range []float64{sp.AdmittedSim, sp.PlannedSim, sp.FirstLaunchSim, sp.DoneSim} {
			if at >= 0 && at < last {
				return fmt.Errorf("job %d: milestones out of order: %+v", sp.Job, sp)
			}
			last = math.Max(last, at)
		}
		var sum float64
		for _, ph := range sp.Phases() {
			sum += ph.DurSim
		}
		if e2e := sp.E2ESim(); e2e < 0 || math.Abs(sum-e2e) > 1e-9 {
			return fmt.Errorf("job %d: phases sum to %g, e2e %g: %+v", sp.Job, sum, e2e, sp)
		}
	}
	if want := audit.TotalUC - audit.UnattributedJobUC; costUC != want {
		return fmt.Errorf("spans carry %d uc, the ledger attributes %d uc to jobs", costUC, want)
	}
	for tenant := range d.tenantJobs {
		e2eCount += d.sm.TenantE2E.With(tenant).Count()
	}
	spans := d.sm.Spans.With(obs.OutcomeDone).Value() + d.sm.Spans.With(obs.OutcomeCancelled).Value()
	ended := d.sm.JobsDone.Value() + d.sm.JobsCancelled.Value()
	if n := float64(len(d.records)); spans != n || float64(e2eCount) != n || ended != n {
		return fmt.Errorf("%g records: %g done/cancelled spans, %d e2e observations, %g done+cancelled jobs", n, spans, e2eCount, ended)
	}
	if v := d.sm.IllegalTransitions.Value(); v != 0 {
		return fmt.Errorf("%g illegal transitions", v)
	}
	return nil
}

// fuzzRun plays ops on a fresh daemon, checking after every step, then
// drains it — every node back up, the out-of-budget tenant's queue
// withdrawn — and returns the three reports same-seed runs must repeat
// byte for byte.
func fuzzRun(seed int64, ops []fuzzOp) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	var sch sim.Scheduler = sched.NewFair()
	if seed%2 == 0 {
		sch = sched.NewLiPS(60)
	}
	d, err := New(cluster.Paper20(0.5), sch, obs.NewRegistry(), Config{
		EpochSimSec: 60, AdmitPerEpoch: 4, QueueCap: 48,
		SLOE2ESec: 240, SLOQueueWaitSec: 60, SLOBudget: 0.25,
		Budgets: map[string]float64{"hog": 0.00001},
	})
	if err != nil {
		return "", err
	}
	h := d.Handler()
	stepAndCheck := func(cancelMidStep int) error {
		if err := stepCancelling(d, h, cancelMidStep); err != nil {
			return err
		}
		return checkStep(d)
	}
	var ids []int
	for i, op := range ops {
		err = nil
		switch op.kind {
		case 's':
			code, body := call(h, http.MethodPost, "/submit", op.req)
			var sr SubmitResponse
			if code == http.StatusAccepted && json.Unmarshal(body, &sr) == nil {
				ids = append(ids, sr.ID)
			} else if code != http.StatusTooManyRequests {
				err = fmt.Errorf("%d %s", code, body)
			}
		case 'c':
			if len(ids) > 0 {
				if code, body := call(h, http.MethodPost, fmt.Sprintf("/cancel?id=%d", ids[op.n%len(ids)]), nil); code != http.StatusOK {
					err = fmt.Errorf("%d %s", code, body)
				}
			}
		case 'd', 'u':
			err = d.Churn(cluster.NodeID(op.n), op.kind == 'd')
		case 'e':
			err = stepAndCheck(-1)
		case 'm':
			id := -1
			if len(ids) > 0 {
				id = ids[op.n%len(ids)]
			}
			err = stepAndCheck(id)
		}
		if err != nil {
			return "", fmt.Errorf("op %d (%v): %w", i, op, err)
		}
	}
	for n := 0; n < fuzzNodes; n++ {
		if err := d.Churn(cluster.NodeID(n), false); err != nil {
			return "", err
		}
	}
	for steps := 0; !idle(d); steps++ {
		if steps == 150 {
			return "", fmt.Errorf("not idle %d epochs after the last op", steps)
		}
		d.mu.Lock()
		var blocked []int
		for _, id := range d.queue {
			if d.records[id].span.Tenant == "hog" {
				blocked = append(blocked, id)
			}
		}
		d.mu.Unlock()
		for _, id := range blocked {
			call(h, http.MethodPost, fmt.Sprintf("/cancel?id=%d", id), nil)
		}
		if err := stepAndCheck(-1); err != nil {
			return "", fmt.Errorf("draining, step %d: %w", steps, err)
		}
	}
	if err := checkDrained(d, h); err != nil {
		return "", err
	}
	var b strings.Builder
	for _, path := range []string{"/debug/spans", "/stats", "/tenants"} {
		_, body := call(h, http.MethodGet, path, nil)
		b.Write(body)
	}
	return b.String(), nil
}

// TestLifecycleFuzz drives Step through seeded scenarios of interleaved
// submits, cancels, node churn and a tenant running out of budget, and
// holds the daemon's standing invariants: after every step no record
// outlives its simulator job and the kept counts equal a recount; the
// daemon drains in bounded epochs to records that are all done or
// cancelled; /audit reconciles and the spans carry exactly the money the
// ledger attributes to jobs; milestones are ordered and phases telescope;
// spans, e2e observations and done+cancelled counters agree one for one;
// and a seed replays byte for byte. A failure names the seed and the
// shortest prefix of its ops that still fails.
func TestLifecycleFuzz(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ops := fuzzOps(seed)
		out, err := fuzzRun(seed, ops)
		if err == nil {
			if again, err := fuzzRun(seed, ops); err != nil || again != out {
				t.Errorf("seed %d: a second run differs (err %v):\n%s\n%s", seed, err, out, again)
			}
			continue
		}
		// Bisect on prefix length; failures need not be monotone in it, so
		// this finds a short failing prefix, not provably the shortest.
		n := sort.Search(len(ops), func(n int) bool {
			_, err := fuzzRun(seed, ops[:n])
			return err != nil
		})
		_, short := fuzzRun(seed, ops[:n])
		if short == nil {
			n, short = len(ops), err
		}
		var list strings.Builder
		for i, op := range ops[:n] {
			fmt.Fprintf(&list, "  %3d %v\n", i, op)
		}
		t.Fatalf("seed %d: %v\nshortest failing prefix, %d of %d ops: %v\n%s", seed, err, n, len(ops), short, list.String())
	}
}
