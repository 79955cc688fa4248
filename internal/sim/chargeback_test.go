package sim

import (
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/obs"
	"lips/internal/obs/obstest"
	"lips/internal/trace"
	"lips/internal/workload"
)

// multiTenantWorkload builds four input jobs owned by three tenants
// (one anonymous), enough concurrency to contend for the cluster.
func multiTenantWorkload() *workload.Workload {
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	wb.AddInputJob("j-a1", "alice", arch, 256, 0, 0)
	wb.AddInputJob("j-b1", "bob", arch, 128, 1, 5)
	wb.AddInputJob("j-a2", "alice", arch, 128, 2, 10)
	wb.AddInputJob("j-anon", "", arch, 64, 0, 15) // lands on _system
	return wb.Build()
}

func chargebackCluster() *cluster.Cluster {
	b := cluster.NewBuilder("za", "zb")
	for i := 0; i < 2; i++ {
		b.AddNode("za", "t", 2, 2, cost.Millicents(1), 100)
		b.AddNode("zb", "t", 2, 2, cost.Millicents(1), 100)
	}
	return b.Build()
}

// TestLedgerConservationUnderChurn is the sim-layer half of the
// reconciliation invariant: across seeded fault + speculation + cancel
// runs, per-job charges sum exactly to the global category totals, and
// the tenant×category chargeback conserves every microcent of the
// ledger.
func TestLedgerConservationUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := chargebackCluster()
		w := multiTenantWorkload()
		plan := RandomFaultPlan(seed, c, FaultSpec{Crashes: 2, StoreLosses: 1, Slowdowns: 2, WindowSec: 90, DowntimeSec: 20})
		s := New(c, w, nil, greedyStub(), Options{Faults: plan, Speculative: true})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		cancelled := false
		for i := 1; !s.Drained() && i <= 500; i++ {
			if err := s.StepUntil(float64(i) * 5); err != nil {
				t.Fatal(err)
			}
			// Cancel bob's job once it has running attempts, so the
			// partial burn lands in the speculative category.
			if !cancelled {
				if _, _, running, _ := s.JobStateCounts(1); running > 0 {
					if err := s.CancelJob(1); err != nil {
						t.Fatal(err)
					}
					cancelled = true
				}
			}
		}
		if !s.Drained() {
			t.Fatalf("seed %d: run never drained", seed)
		}
		if !cancelled {
			t.Fatalf("seed %d: cancel never exercised", seed)
		}
		l := s.Ledger
		if l.Total() == 0 {
			t.Fatalf("seed %d: vacuous run, nothing billed", seed)
		}
		if err := l.Reconcile(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// Per-job charges sum exactly to the category totals minus the
		// unattributable remainder (background replication, plan moves).
		var jobSum, catSum cost.Money
		for _, j := range s.W.Jobs {
			jobSum += l.Job(j.Name)
		}
		for _, cat := range cost.Categories {
			catSum += l.Category(cat)
		}
		if jobSum+l.Unattributed() != catSum {
			t.Errorf("seed %d: job sum %d + unattributed %d != category sum %d (uc)",
				seed, jobSum, l.Unattributed(), catSum)
		}
		if catSum != l.Total() {
			t.Errorf("seed %d: category sum %d != total %d (uc)", seed, catSum, l.Total())
		}
		// The span's per-job cost reads the same key.
		for j := range s.W.Jobs {
			if got, want := s.JobSpan(j).CostUC, int64(l.Job(s.W.Jobs[j].Name)); got != want {
				t.Errorf("seed %d: JobSpan(%d).CostUC = %d, ledger says %d", seed, j, got, want)
			}
		}
		// Tenants: alice, bob, and the reserved unattributed bucket.
		tenants := l.Tenants()
		if len(tenants) != 3 || tenants[0] != cost.UnattributedTenant {
			t.Errorf("seed %d: tenants = %v", seed, tenants)
		}
		var tenantSum cost.Money
		for _, tn := range tenants {
			tenantSum += l.TenantTotal(tn)
		}
		if tenantSum != l.Total() {
			t.Errorf("seed %d: tenant sum %d != total %d (uc)", seed, tenantSum, l.Total())
		}
	}
}

// eventBuf captures trace events in memory for replay tests.
type eventBuf struct{ events []trace.Event }

func (b *eventBuf) Enabled() bool      { return true }
func (b *eventBuf) Emit(e trace.Event) { b.events = append(b.events, e) }

// TestTenantChargebackLiveMatchesReplay runs a faulty multi-tenant
// workload with both live metrics and tracing, replays the trace into a
// fresh registry through obs.TraceSink, and requires the two expositions
// to match byte for byte — per-tenant chargeback included, the
// trace-replay half of the audit invariant — and every live
// lips_cost_microcents_total{tenant,category} cell to equal the ledger's.
func TestTenantChargebackLiveMatchesReplay(t *testing.T) {
	c := chargebackCluster()
	w := multiTenantWorkload()
	plan := RandomFaultPlan(3, c, FaultSpec{Crashes: 1, StoreLosses: 1, Slowdowns: 1, WindowSec: 90, DowntimeSec: 20})
	live := obs.NewRegistry()
	obs.RegisterSched(live) // the sink registers it too; this scheduler never moves it
	buf := &eventBuf{}
	r, err := New(c, w, nil, greedyStub(), Options{
		Metrics: live, Tracer: buf, SampleIntervalSec: 10, Faults: plan, Speculative: true,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf.events) == 0 {
		t.Fatal("no events traced")
	}
	for _, e := range buf.events {
		if err := trace.Validate(e); err != nil {
			t.Fatalf("invalid event: %v", err)
		}
	}

	replay := obs.NewRegistry()
	sink := obs.NewTraceSink(replay)
	for _, e := range buf.events {
		sink.Emit(e)
	}
	obstest.SameExposition(t, live, replay, obstest.Replayed...)

	// Both sides book through SimMetrics.Charge, so a wrong label there
	// would match itself above; the ledger is the independent reference.
	// A cell the zero rule left out reads 0, like its 0 µ¢ ledger cell.
	for _, tn := range r.Cost.Tenants() {
		for _, cat := range cost.Categories {
			got, _ := live.Value(obs.MCost, tn, string(cat))
			if want := float64(r.Cost.TenantCategory(tn, cat)); got != want {
				t.Errorf("live cost{%s,%s} = %g, ledger %g", tn, cat, got, want)
			}
		}
	}
	if got, want := live.Sum(obs.MCost), float64(r.Cost.Total()); got != want || want == 0 {
		t.Errorf("live chargeback sum = %g, ledger total %g", got, want)
	}
}
