package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"lips/internal/cost"
	"lips/internal/trace"
)

// The trace's money-bearing events are the mirror of the simulator's
// charge chokepoint: every microcent the ledger books rides on exactly
// one done, kill or move event. eventCharges inverts that mapping, so
// -audit can rebuild the ledger from the stream and prove it against
// the cumulative sample snapshots, and -by-job can roll charges up to
// the jobs that caused them.

// charge is one (job, category, amount) booking recovered from an event.
// Job is -1 for money no single job caused (block moves, repairs).
type charge struct {
	job    int
	cat    cost.Category
	amount int64
}

// killCategory maps a kill reason to the ledger category its CostUC was
// billed under (the same mapping the simulator's kill sites use).
func killCategory(reason string) (cost.Category, bool) {
	switch reason {
	case "timeout":
		return cost.CatTransfer, true
	case "speculative", "cancel":
		return cost.CatSpeculative, true
	case "node-crash", "store-loss":
		return cost.CatFault, true
	default:
		return "", false
	}
}

// moveCategory maps a move reason to its ledger category: planned and
// balancer moves are placement spend, fault repairs are fault spend.
func moveCategory(reason string) (cost.Category, bool) {
	switch reason {
	case "plan", "balance":
		return cost.CatPlacement, true
	case "re-replicate", "re-materialize":
		return cost.CatFault, true
	default:
		return "", false
	}
}

// eventCharges recovers the ledger bookings an event carries (nil for
// kinds that bill nothing). A done event splits into its CPU and
// transfer components; a kill bills its reason's category; a move is
// never job-attributed.
func eventCharges(e trace.Event) ([]charge, error) {
	switch e.Kind {
	case trace.KindDone:
		t := e.Task
		if t.XferUC > t.CostUC {
			return nil, fmt.Errorf("done j%d/t%d: transfer %d exceeds total %d", t.Job, t.Task, t.XferUC, t.CostUC)
		}
		ch := []charge{{job: t.Job, cat: cost.CatCPU, amount: t.CostUC - t.XferUC}}
		if t.XferUC > 0 {
			ch = append(ch, charge{job: t.Job, cat: cost.CatTransfer, amount: t.XferUC})
		}
		return ch, nil
	case trace.KindKill:
		cat, ok := killCategory(e.Task.Reason)
		if !ok {
			return nil, fmt.Errorf("kill j%d/t%d: unknown reason %q", e.Task.Job, e.Task.Task, e.Task.Reason)
		}
		if e.Task.CostUC == 0 {
			return nil, nil
		}
		return []charge{{job: e.Task.Job, cat: cat, amount: e.Task.CostUC}}, nil
	case trace.KindMove:
		cat, ok := moveCategory(e.Move.Reason)
		if !ok {
			return nil, fmt.Errorf("move %d/%d: unknown reason %q", e.Move.Object, e.Move.Block, e.Move.Reason)
		}
		if e.Move.CostUC == 0 {
			return nil, nil
		}
		return []charge{{job: -1, cat: cat, amount: e.Move.CostUC}}, nil
	default:
		return nil, nil
	}
}

// tenantOf resolves a charge's owning tenant from the run header's
// job→user table. Jobless charges and jobs with no recorded user land
// on the reserved unattributed tenant, mirroring Sim.charge. ok is
// false when the header cannot attribute the job (serve-mode traces
// carry no job table), which disables per-tenant auditing.
func tenantOf(info *trace.RunInfo, job int) (string, bool) {
	if job < 0 {
		return cost.UnattributedTenant, true
	}
	if info == nil || job >= len(info.JobUsers) {
		return "", false
	}
	if info.JobUsers[job] == "" {
		return cost.UnattributedTenant, true
	}
	return info.JobUsers[job], true
}

// auditRun streams one run's events in file order, rebuilding the
// cumulative per-category and per-tenant ledgers from the money-bearing
// events, and proves them — to the exact microcent — against every
// sample snapshot the producer embedded. A drift anywhere is an error
// naming the first diverging sample.
func auditRun(out io.Writer, r runGroup) error {
	name := "(headerless)"
	if r.info != nil {
		name = r.info.Scheduler
		if r.info.Label != "" {
			name = r.info.Label + " — " + name
		}
	}

	cats := make(map[cost.Category]int64)
	tenants := make(map[string]map[cost.Category]int64)
	var total int64
	tenantsOK := true
	charges, samples := 0, 0

	for i, e := range r.events {
		chs, err := eventCharges(e)
		if err != nil {
			return fmt.Errorf("audit %s: event %d: %v", name, i, err)
		}
		for _, ch := range chs {
			if ch.amount < 0 {
				return fmt.Errorf("audit %s: event %d: negative charge %d", name, i, ch.amount)
			}
			cats[ch.cat] += ch.amount
			total += ch.amount
			charges++
			if tn, ok := tenantOf(r.info, ch.job); ok {
				m := tenants[tn]
				if m == nil {
					m = make(map[cost.Category]int64)
					tenants[tn] = m
				}
				m[ch.cat] += ch.amount
			} else {
				tenantsOK = false
			}
		}
		if e.Kind != trace.KindSample {
			continue
		}
		samples++
		s := e.Sample
		for _, c := range []struct {
			cat  cost.Category
			want int64
		}{
			{cost.CatCPU, s.CPUUC}, {cost.CatTransfer, s.TransferUC},
			{cost.CatPlacement, s.PlacementUC}, {cost.CatSpeculative, s.SpeculativeUC},
			{cost.CatFault, s.FaultUC},
		} {
			if cats[c.cat] != c.want {
				return fmt.Errorf("audit %s: sample at t=%.0fs: %s rebuilt %s, ledger says %s",
					name, e.T, c.cat, usd(cats[c.cat]), usd(c.want))
			}
		}
		if total != s.TotalUC {
			return fmt.Errorf("audit %s: sample at t=%.0fs: total rebuilt %s, ledger says %s",
				name, e.T, usd(total), usd(s.TotalUC))
		}
		if !tenantsOK {
			continue
		}
		var tenantSum int64
		for _, tc := range s.Tenants {
			tenantSum += tc.TotalUC
			got := tenants[tc.Tenant]
			for _, c := range []struct {
				cat  cost.Category
				want int64
			}{
				{cost.CatCPU, tc.CPUUC}, {cost.CatTransfer, tc.TransferUC},
				{cost.CatPlacement, tc.PlacementUC}, {cost.CatSpeculative, tc.SpeculativeUC},
				{cost.CatFault, tc.FaultUC},
			} {
				if got[c.cat] != c.want {
					return fmt.Errorf("audit %s: sample at t=%.0fs: tenant %s %s rebuilt %s, ledger says %s",
						name, e.T, tc.Tenant, c.cat, usd(got[c.cat]), usd(c.want))
				}
			}
		}
		if tenantSum != s.TotalUC {
			return fmt.Errorf("audit %s: sample at t=%.0fs: tenant chargebacks sum to %s, ledger total is %s",
				name, e.T, usd(tenantSum), usd(s.TotalUC))
		}
		for tn, m := range tenants {
			var sum int64
			for _, v := range m {
				sum += v
			}
			if sum == 0 {
				continue
			}
			found := false
			for _, tc := range s.Tenants {
				if tc.Tenant == tn {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("audit %s: sample at t=%.0fs: rebuilt tenant %s (%s) missing from ledger",
					name, e.T, tn, usd(sum))
			}
		}
	}

	if samples == 0 {
		return fmt.Errorf("audit %s: no sample snapshots to reconcile against (trace produced without -sample?)", name)
	}
	fmt.Fprintf(out, "audit %s: OK — %d charge bookings over %d samples reconciled to the microcent, %s total",
		name, charges, samples, usd(total))
	if tenantsOK {
		names := make([]string, 0, len(tenants))
		for tn := range tenants {
			names = append(names, tn)
		}
		sort.Strings(names)
		fmt.Fprintf(out, " across %d tenants %v\n", len(names), names)
	} else {
		fmt.Fprintf(out, " (no job→tenant table in the run header; tenant lines not audited)\n")
	}
	return nil
}

// jobBill is one job's rolled-up charges across every attempt, kill and
// repair billed to it.
type jobBill struct {
	job     int
	name    string
	tenant  string
	done    int // completed attempts
	kills   int
	cpuSec  float64
	byCat   map[cost.Category]int64
	totalUC int64
}

// rollupJobs accumulates per-job bills from one run's money-bearing
// events. Jobless charges aggregate under the pseudo-entry job=-1 so
// the rollup still sums to the run total.
func rollupJobs(r runGroup) ([]*jobBill, error) {
	bills := make(map[int]*jobBill)
	get := func(job int) *jobBill {
		b := bills[job]
		if b == nil {
			b = &jobBill{job: job, byCat: make(map[cost.Category]int64)}
			b.name = fmt.Sprintf("j%d", job)
			b.tenant = "?"
			if job < 0 {
				b.name = "(system)"
				b.tenant = cost.UnattributedTenant
			} else if r.info != nil {
				if job < len(r.info.JobNames) && r.info.JobNames[job] != "" {
					b.name = r.info.JobNames[job]
				}
				if tn, ok := tenantOf(r.info, job); ok {
					b.tenant = tn
				}
			}
			bills[job] = b
		}
		return b
	}
	for i, e := range r.events {
		chs, err := eventCharges(e)
		if err != nil {
			return nil, fmt.Errorf("event %d: %v", i, err)
		}
		for _, ch := range chs {
			b := get(ch.job)
			b.byCat[ch.cat] += ch.amount
			b.totalUC += ch.amount
		}
		switch e.Kind {
		case trace.KindDone:
			b := get(e.Task.Job)
			b.done++
			b.cpuSec += e.Task.CPUSec
		case trace.KindKill:
			get(e.Task.Job).kills++
		}
	}
	out := make([]*jobBill, 0, len(bills))
	for _, b := range bills {
		out = append(out, b)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].totalUC != out[b].totalUC {
			return out[a].totalUC > out[b].totalUC
		}
		return out[a].job < out[b].job
	})
	return out, nil
}

// printByJob renders the top-N most expensive jobs of one run.
func printByJob(out io.Writer, r runGroup, top int) error {
	bills, err := rollupJobs(r)
	if err != nil {
		return err
	}
	var totalUC int64
	for _, b := range bills {
		totalUC += b.totalUC
	}
	shown := bills
	if len(shown) > top {
		shown = shown[:top]
	}
	fmt.Fprintf(out, "\ntop %d most expensive jobs (of %d billed, %s total):\n", len(shown), len(bills), usd(totalUC))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  job\ttenant\tdone\tkills\tcpu-sec\tcpu\ttransfer\tspec\tfault\ttotal\tshare")
	for _, b := range shown {
		share := 0.0
		if totalUC > 0 {
			share = 100 * float64(b.totalUC) / float64(totalUC)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%d\t%.0f\t%s\t%s\t%s\t%s\t%s\t%.1f%%\n",
			b.name, b.tenant, b.done, b.kills, b.cpuSec,
			usd(b.byCat[cost.CatCPU]), usd(b.byCat[cost.CatTransfer]),
			usd(b.byCat[cost.CatSpeculative]), usd(b.byCat[cost.CatFault]),
			usd(b.totalUC), share)
	}
	return tw.Flush()
}

// writeByJobCSV exports every run's full job rollup (not just the top
// N) as CSV: one row per billed job, amounts in exact microcents.
func writeByJobCSV(path string, runs []runGroup) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run,job,name,tenant,done,kills,cpu_sec,cpu_uc,transfer_uc,placement_uc,speculative_uc,fault_uc,total_uc")
	for ri, r := range runs {
		bills, err := rollupJobs(r)
		if err != nil {
			f.Close()
			return err
		}
		for _, b := range bills {
			fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d,%.3f,%d,%d,%d,%d,%d,%d\n",
				ri, b.job, b.name, b.tenant, b.done, b.kills, b.cpuSec,
				b.byCat[cost.CatCPU], b.byCat[cost.CatTransfer], b.byCat[cost.CatPlacement],
				b.byCat[cost.CatSpeculative], b.byCat[cost.CatFault], b.totalUC)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
