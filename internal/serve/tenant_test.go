package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"lips/internal/obs"
)

// TestTenantsAndAuditEndpoints drives two tenants to completion and
// checks the chargeback surface: /tenants rows carry exact microcents,
// dollars and unit economics; the per-tenant detail answers; and /audit
// proves Σ tenant chargebacks == the global ledger to the microcent,
// cross-checked against the live metric counters.
func TestTenantsAndAuditEndpoints(t *testing.T) {
	d, ts := newTestDaemon(t, Config{EpochSimSec: 60, SLOE2ESec: 10000})
	d.Start()
	counts := map[string]int{"alice": 3, "bob": 2}
	total := 0
	for tenant, n := range counts {
		for i := 0; i < n; i++ {
			if _, code := submitOne(t, ts.URL, tenant); code != http.StatusAccepted {
				t.Fatalf("submit %s: %d", tenant, code)
			}
			total++
		}
	}
	waitStats(t, ts.URL, func(st *Stats) bool { return st.Jobs[StateDone] == total })

	var tr TenantsResponse
	if code := getJSON(t, ts.URL+"/tenants", &tr); code != http.StatusOK {
		t.Fatalf("/tenants: %d", code)
	}
	var audit AuditResponse
	if code := getJSON(t, ts.URL+"/audit", &audit); code != http.StatusOK {
		t.Fatalf("/audit: %d (%s)", code, audit.Error)
	}
	if !audit.OK || audit.TotalUC <= 0 {
		t.Fatalf("audit not clean: %+v", audit)
	}
	if audit.TenantSumUC != audit.TotalUC ||
		audit.MetricTenantUC != audit.TotalUC || audit.MetricCategoryUC != audit.TotalUC {
		t.Errorf("audit sums disagree: %+v", audit)
	}

	var rowSum int64
	seen := map[string]TenantSummary{}
	catSums := map[string]int64{}
	for i, row := range tr.Tenants {
		seen[row.Tenant] = row
		rowSum += row.TotalUC
		for cat, uc := range row.Categories {
			catSums[cat] += uc
		}
		if i > 0 && tr.Tenants[i-1].Tenant >= row.Tenant {
			t.Errorf("/tenants not sorted: %q before %q", tr.Tenants[i-1].Tenant, row.Tenant)
		}
		var catSum int64
		for _, uc := range row.Categories {
			catSum += uc
		}
		if catSum != row.TotalUC {
			t.Errorf("tenant %s: category sum %d != total %d", row.Tenant, catSum, row.TotalUC)
		}
	}
	// The epoch loop publishes job completion and the ledger copy under
	// one lock hold, so once every job is done the rows cover the bill.
	if rowSum != audit.TotalUC {
		t.Errorf("/tenants rows sum to %d uc, audit total %d uc", rowSum, audit.TotalUC)
	}
	for cat, uc := range audit.Categories {
		if catSums[cat] != uc {
			t.Errorf("/tenants rows sum to %d uc of %s, audit ledger has %d uc", catSums[cat], cat, uc)
		}
	}
	for tenant, n := range counts {
		row, ok := seen[tenant]
		if !ok {
			t.Fatalf("tenant %s missing from /tenants", tenant)
		}
		if row.TotalUC <= 0 || row.TotalUSD <= 0 {
			t.Errorf("tenant %s billed nothing: %+v", tenant, row)
		}
		if row.Jobs[StateDone] != n {
			t.Errorf("tenant %s jobs = %v, want %d done", tenant, row.Jobs, n)
		}
		if want := row.TotalUSD / float64(n); row.USDPerDoneJob != want {
			t.Errorf("tenant %s $/job = %g, want %g", tenant, row.USDPerDoneJob, want)
		}
		if len(row.Attainment) != 1 || row.Attainment[0].Total != int64(n) {
			t.Errorf("tenant %s attainment = %+v", tenant, row.Attainment)
		}
	}
	// alice costs ~3/2 of bob (same archetype, same input size).
	if a, b := seen["alice"].TotalUC, seen["bob"].TotalUC; a <= b {
		t.Errorf("alice (%d uc, 3 jobs) not billed more than bob (%d uc, 2 jobs)", a, b)
	}

	var det TenantDetail
	if code := getJSON(t, ts.URL+"/tenants/alice", &det); code != http.StatusOK {
		t.Fatalf("/tenants/alice: %d", code)
	}
	if det.Tenant != "alice" || det.TotalUC != seen["alice"].TotalUC {
		t.Errorf("detail = %+v, want the alice row", det.TenantSummary)
	}
	if len(det.Recent) != counts["alice"] {
		t.Errorf("detail lists %d recent jobs, want %d", len(det.Recent), counts["alice"])
	}
	for _, js := range det.Recent {
		if js.Tenant != "alice" {
			t.Errorf("recent job of wrong tenant: %+v", js)
		}
	}
	if len(det.Burn) != 1 || det.Burn[0].SLO != obs.SLOE2E {
		t.Errorf("detail burn = %+v", det.Burn)
	}
	var e errorResponse
	if code := getJSON(t, ts.URL+"/tenants/nosuch", &e); code != http.StatusNotFound {
		t.Errorf("unknown tenant: %d", code)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetExhaustedDeferral: once a tenant's ledger spend reaches its
// dollar cap, its queued jobs sit out admission with the typed
// budget-exhausted reason — visible on /debug/epochs and /tenants —
// while other tenants keep flowing.
func TestBudgetExhaustedDeferral(t *testing.T) {
	d, ts := newTestDaemon(t, Config{
		EpochSimSec: 60,
		// Any completed job blows through a thousandth of a cent.
		Budgets: map[string]float64{"hog": 0.00001},
	})
	id0, code := submitOne(t, ts.URL, "hog")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	stepUntil(t, d, func(st *Stats) bool { return st.Jobs[StateDone] == 1 })

	// The first job's charges exhausted the budget; the next hog job must
	// stay queued while an unbudgeted tenant sails past it.
	id1, code := submitOne(t, ts.URL, "hog")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if _, code := submitOne(t, ts.URL, "meek"); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if st := stepUntil(t, d, func(st *Stats) bool { return st.Jobs[StateDone] == 2 }); st.Jobs[StateQueued] != 1 {
		t.Fatalf("blocked job not queued: %+v", st.Jobs)
	}

	// The epoch that admitted meek's job passed hog's over, and said why.
	var er EpochsResponse
	if code := getJSON(t, ts.URL+"/debug/epochs", &er); code != http.StatusOK {
		t.Fatalf("/debug/epochs: %d", code)
	}
	sawBudgetDeferral := false
	for _, dec := range er.Epochs {
		for _, df := range dec.Deferred {
			if df.Reason == obs.ReasonBudgetExhausted {
				if df.ID != id1 || df.Tenant != "hog" {
					t.Errorf("budget deferral names %+v, want job %d of hog", df, id1)
				}
				sawBudgetDeferral = true
			}
		}
	}
	if !sawBudgetDeferral {
		t.Error("no budget-exhausted deferral ever surfaced on /debug/epochs")
	}

	var det TenantDetail
	if code := getJSON(t, ts.URL+"/tenants/hog", &det); code != http.StatusOK {
		t.Fatalf("/tenants/hog: %d", code)
	}
	if !det.OverBudget || det.BudgetUSD != 0.00001 || det.TotalUC <= 0 {
		t.Errorf("hog not flagged over budget: %+v", det.TenantSummary)
	}
	// Status of the first job stayed terminal; the blocked one is queued.
	var js JobStatus
	if code := getJSON(t, fmt.Sprintf("%s/status?id=%d", ts.URL, id0), &js); code != http.StatusOK || js.State != StateDone {
		t.Errorf("first hog job: code %d state %q", code, js.State)
	}
	if code := getJSON(t, fmt.Sprintf("%s/status?id=%d", ts.URL, id1), &js); code != http.StatusOK || js.State != StateQueued {
		t.Errorf("blocked hog job: code %d state %q", code, js.State)
	}

	// Withdraw the blocked job so drain has nothing to wait out.
	resp, _ := postJSON(t, fmt.Sprintf("%s/cancel?id=%d", ts.URL, id1), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestSLOBurnAlertLifecycle is the acceptance scenario: with an
// impossible e2e objective every completion is a violation, so the
// burn-rate alert fires under load — and once the backlog drains and
// the rolling windows age out, it resolves. Transitions land on the
// alert metrics and the firing gauge tracks the active count.
func TestSLOBurnAlertLifecycle(t *testing.T) {
	var logs lockedBuffer
	d, ts := newTestDaemon(t, Config{
		Logger:      slog.New(slog.NewJSONHandler(&logs, nil)),
		EpochSimSec: 60, AdmitPerEpoch: 2,
		// Jobs take at least one 60 s epoch end to end, so a 1 s objective
		// makes every completion a violation; burn = 1/0.5 = 2.
		SLOE2ESec: 1, SLOBudget: 0.5, SLOShortSec: 300, SLOLongSec: 600,
	})
	d.Start()
	const jobs = 8
	for i := 0; i < jobs; i++ {
		if _, code := submitOne(t, ts.URL, "alice"); code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
	}

	waitAlerts := func(ok func(*AlertsResponse) bool) *AlertsResponse {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			var ar AlertsResponse
			if code := getJSON(t, ts.URL+"/alerts", &ar); code != http.StatusOK {
				t.Fatalf("/alerts: %d", code)
			}
			if ok(&ar) {
				return &ar
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("alert condition never met")
		return nil
	}

	ar := waitAlerts(func(ar *AlertsResponse) bool { return ar.Firing > 0 })
	if !ar.Enabled {
		t.Fatal("engine reports disabled")
	}
	found := false
	for _, a := range ar.Alerts {
		if a.State == obs.AlertFiring {
			found = true
			if a.Tenant != "alice" || a.SLO != obs.SLOE2E || a.BurnShort < 1 || a.BurnLong < 1 {
				t.Errorf("firing alert %+v", a)
			}
		}
	}
	if !found {
		t.Fatalf("firing count %d but no firing alert in %+v", ar.Firing, ar.Alerts)
	}
	if v, ok := d.reg.Value(obs.MServeAlertsFiring); !ok || v < 1 {
		t.Errorf("firing gauge = %g (%v), want >= 1", v, ok)
	}
	if v, ok := d.reg.Value(obs.MServeBurnRate, "alice", obs.WindowShort); !ok || v < 1 {
		t.Errorf("short burn gauge = %g (%v), want >= 1", v, ok)
	}

	// Drain: once the backlog completes, simulated time keeps racing at
	// one epoch per wall tick, the windows empty, and the alert resolves.
	waitStats(t, ts.URL, func(st *Stats) bool { return st.Jobs[StateDone] == jobs })
	ar = waitAlerts(func(ar *AlertsResponse) bool {
		if ar.Firing != 0 {
			return false
		}
		for _, a := range ar.Alerts {
			if a.State == obs.AlertResolved {
				return true
			}
		}
		return false
	})
	for _, a := range ar.Alerts {
		if a.State == obs.AlertResolved && (a.ResolvedSim <= a.FiredSim || a.Tenant != "alice") {
			t.Errorf("resolved alert %+v", a)
		}
	}
	if v, ok := d.reg.Value(obs.MServeAlertsFiring); !ok || v != 0 {
		t.Errorf("firing gauge = %g after resolve, want 0", v)
	}
	for _, state := range []string{obs.AlertFiring, obs.AlertResolved} {
		if v, ok := d.reg.Value(obs.MServeAlertTransitions, state); !ok || v < 1 {
			t.Errorf("transition counter %s = %g (%v), want >= 1", state, v, ok)
		}
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Both transitions reached the structured log.
	msgs := strings.Join(logs.messages(t), "\n")
	for _, want := range []string{"slo alert firing", "slo alert resolved"} {
		if !strings.Contains(msgs, want) {
			t.Errorf("log stream has no %q record:\n%s", want, msgs)
		}
	}
}
