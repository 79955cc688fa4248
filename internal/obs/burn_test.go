package obs

import (
	"strings"
	"testing"
)

func engineSLO() SLO {
	return SLO{Kind: SLOE2E, ObjectiveSec: 10, Budget: 0.1, ShortSec: 120, LongSec: 720}
}

// TestBurnEngineLifecycle drives one tenant through the full pending →
// firing → resolved lifecycle with deterministic observations.
func TestBurnEngineLifecycle(t *testing.T) {
	e := NewBurnEngine(engineSLO())
	if !e.Enabled() {
		t.Fatal("engine with an objective must be enabled")
	}

	// All good: no alert.
	for i := 0; i < 20; i++ {
		e.Observe("a", SLOE2E, float64(i), 1)
	}
	if tr := e.Evaluate(20); len(tr) != 0 {
		t.Fatalf("transitions on a healthy tenant: %+v", tr)
	}

	// Saturate both windows with violations: must go straight to firing
	// (short and long both hot).
	for i := 20; i < 40; i++ {
		e.Observe("a", SLOE2E, float64(i), 100)
	}
	tr := e.Evaluate(40)
	if len(tr) != 1 || tr[0].State != AlertFiring || tr[0].Tenant != "a" {
		t.Fatalf("expected a firing transition, got %+v", tr)
	}
	if tr[0].BurnShort < 1 || tr[0].BurnLong < 1 {
		t.Errorf("firing with cold windows: %+v", tr[0])
	}
	if e.Firing() != 1 {
		t.Errorf("Firing = %d, want 1", e.Firing())
	}
	// Steady state: no repeated transition.
	if tr := e.Evaluate(41); len(tr) != 0 {
		t.Errorf("re-fired without a state change: %+v", tr)
	}
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].State != AlertFiring {
		t.Fatalf("Alerts = %+v", alerts)
	}

	// Let both windows age out (t advances past the long window): the
	// alert resolves and moves to the history.
	tr = e.Evaluate(40 + 1000)
	if len(tr) != 1 || tr[0].State != AlertResolved {
		t.Fatalf("expected a resolved transition, got %+v", tr)
	}
	if e.Firing() != 0 {
		t.Errorf("Firing = %d after resolve", e.Firing())
	}
	alerts = e.Alerts()
	if len(alerts) != 1 || alerts[0].State != AlertResolved || alerts[0].ResolvedSim != 1040 {
		t.Fatalf("resolved history = %+v", alerts)
	}

	// Lifetime attainment survives the window reset.
	at := e.Attainments("a")
	if len(at) != 1 || at[0].Good != 20 || at[0].Total != 40 || at[0].Ratio != 0.5 {
		t.Errorf("Attainments = %+v", at)
	}
	// An unseen tenant reports a full ratio with zero observations.
	at = e.Attainments("ghost")
	if len(at) != 1 || at[0].Total != 0 || at[0].Ratio != 1 {
		t.Errorf("ghost Attainments = %+v", at)
	}
}

// TestBurnEnginePendingSubsides checks a short-window blip that never
// confirms in the long window goes back to ok without a transition.
func TestBurnEnginePendingSubsides(t *testing.T) {
	s := engineSLO()
	e := NewBurnEngine(s)
	// Build a healthy long-window history.
	for i := 0; i < 600; i++ {
		e.Observe("a", SLOE2E, float64(i), 1)
	}
	// A burst of violations hot enough for the short window (20 bad of
	// the ~120 observations inside it → burn ≈ 1.7) but diluted across
	// the long window (20 bad of ~620 → burn ≈ 0.3).
	for i := 600; i < 620; i++ {
		e.Observe("a", SLOE2E, float64(i), 100)
	}
	tr := e.Evaluate(620)
	if len(tr) != 1 || tr[0].State != AlertPending {
		t.Fatalf("expected pending, got %+v", tr)
	}
	// The burst ages out of the short window; the pending alert subsides
	// with no resolved event (it never paged).
	tr = e.Evaluate(620 + 2*s.ShortSec)
	if len(tr) != 0 {
		t.Fatalf("subsiding pending alert emitted %+v", tr)
	}
	if got := e.Alerts(); len(got) != 0 {
		t.Errorf("Alerts after subsiding = %+v", got)
	}
}

// TestBurnEngineDisabled pins the no-objective fast path.
func TestBurnEngineDisabled(t *testing.T) {
	var nilEngine *BurnEngine
	if nilEngine.Enabled() {
		t.Error("nil engine enabled")
	}
	e := NewBurnEngine()
	e.Observe("a", SLOE2E, 0, 100)
	if tr := e.Evaluate(10); tr != nil {
		t.Errorf("disabled engine evaluated: %+v", tr)
	}
	if e.Alerts() != nil || e.BurnRates() != nil || e.Attainments("a") != nil {
		t.Error("disabled engine returned data")
	}
}

// TestCounterVec2Exposition checks the two-label family renders both
// labels in registration order, sorted deterministically, and that
// Value addresses children by the label tuple.
func TestCounterVec2Exposition(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec2("test_cost_total", "Test chargeback.", "tenant", "category")
	v.With("b", "cpu").Add(3)
	v.With("a", "cpu").Add(1)
	v.With("a", "transfer").Add(2)

	if got, ok := r.Value("test_cost_total", "a", "cpu"); !ok || got != 1 {
		t.Errorf("Value(a,cpu) = %g, %v", got, ok)
	}
	if got := r.Sum("test_cost_total"); got != 6 {
		t.Errorf("Sum = %g", got)
	}

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_cost_total Test chargeback.
# TYPE test_cost_total counter
test_cost_total{tenant="a",category="cpu"} 1
test_cost_total{tenant="a",category="transfer"} 2
test_cost_total{tenant="b",category="cpu"} 3
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}

	// Re-registering with a different shape must panic.
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	r.CounterVec("test_cost_total", "x", "tenant")
}
