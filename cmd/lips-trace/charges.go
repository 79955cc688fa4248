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
// one done, kill or move event, under the category and tenant the one
// table in internal/trace (trace.Charges, RunInfo.JobTenant) gives. So
// -audit can rebuild the ledger from the stream and prove it against the
// cumulative sample snapshots, and -by-job can roll charges up to the
// jobs that caused them.

// auditRun streams one run's events in file order, rebuilding the run's
// ledger from the money-bearing events, and proves its category and
// tenant lines — to the exact microcent — against every sample snapshot
// the producer embedded. A drift anywhere is an error naming the first
// diverging sample.
func auditRun(out io.Writer, r runGroup) error {
	name := "(headerless)"
	if r.info != nil {
		name = r.info.Scheduler
		if r.info.Label != "" {
			name = r.info.Label + " — " + name
		}
	}

	l := cost.NewLedger()
	tenantsOK := true
	charges, samples := 0, 0
	for i, e := range r.events {
		chs, err := trace.Charges(e)
		if err != nil {
			return fmt.Errorf("audit %s: event %d: %v", name, i, err)
		}
		for _, ch := range chs {
			if ch.UC < 0 {
				return fmt.Errorf("audit %s: event %d: negative charge %d", name, i, ch.UC)
			}
			tn, ok := r.info.JobTenant(ch.Job)
			tenantsOK = tenantsOK && ok
			l.ChargeTenant(ch.Cat, "", tn, cost.Money(ch.UC))
			charges++
		}
		if e.Kind != trace.KindSample {
			continue
		}
		samples++
		s := e.Sample
		at := fmt.Sprintf("audit %s: sample at t=%.0fs", name, e.T)
		if err := sameLine(at+":", l.Category, s.CPUUC, s.TransferUC, s.PlacementUC, s.SpeculativeUC, s.FaultUC); err != nil {
			return err
		}
		if total := int64(l.Total()); total != s.TotalUC {
			return fmt.Errorf("%s: total rebuilt %s, ledger says %s", at, usd(total), usd(s.TotalUC))
		}
		if !tenantsOK {
			continue
		}
		var tenantSum int64
		listed := make(map[string]bool, len(s.Tenants))
		for _, tc := range s.Tenants {
			tenantSum += tc.TotalUC
			listed[tc.Tenant] = true
			got := func(cat cost.Category) cost.Money { return l.TenantCategory(tc.Tenant, cat) }
			if err := sameLine(at+": tenant "+tc.Tenant, got,
				tc.CPUUC, tc.TransferUC, tc.PlacementUC, tc.SpeculativeUC, tc.FaultUC); err != nil {
				return err
			}
		}
		if tenantSum != s.TotalUC {
			return fmt.Errorf("%s: tenant chargebacks sum to %s, ledger total is %s", at, usd(tenantSum), usd(s.TotalUC))
		}
		for _, tn := range l.Tenants() {
			if sum := int64(l.TenantTotal(tn)); sum != 0 && !listed[tn] {
				return fmt.Errorf("%s: rebuilt tenant %s (%s) missing from ledger", at, tn, usd(sum))
			}
		}
	}

	if samples == 0 {
		return fmt.Errorf("audit %s: no sample snapshots to reconcile against (trace produced without -sample?)", name)
	}
	fmt.Fprintf(out, "audit %s: OK — %d charge bookings over %d samples reconciled to the microcent, %s total",
		name, charges, samples, usd(int64(l.Total())))
	if tenantsOK {
		fmt.Fprintf(out, " across %d tenants %v\n", len(l.Tenants()), l.Tenants())
	} else {
		fmt.Fprintf(out, " (no job→tenant table in the run header; tenant lines not audited)\n")
	}
	return nil
}

// sameLine checks one rebuilt ledger line against a sample's, whose
// microcents come in cost.Categories order.
func sameLine(who string, got func(cost.Category) cost.Money, want ...int64) error {
	for i, cat := range cost.Categories {
		if g := int64(got(cat)); g != want[i] {
			return fmt.Errorf("%s %s rebuilt %s, ledger says %s", who, cat, usd(g), usd(want[i]))
		}
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
			if tn, ok := r.info.JobTenant(job); ok {
				b.tenant = tn
			}
			if job < 0 {
				b.name = "(system)"
			} else if r.info != nil && job < len(r.info.JobNames) && r.info.JobNames[job] != "" {
				b.name = r.info.JobNames[job]
			}
			bills[job] = b
		}
		return b
	}
	for i, e := range r.events {
		chs, err := trace.Charges(e)
		if err != nil {
			return nil, fmt.Errorf("event %d: %v", i, err)
		}
		for _, ch := range chs {
			b := get(ch.Job)
			b.byCat[ch.Cat] += ch.UC
			b.totalUC += ch.UC
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
