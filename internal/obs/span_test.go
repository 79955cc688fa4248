package obs

import "testing"

// TestSpanPhasesTelescope: with every milestone set, the four phases
// are adjacent and their durations sum exactly to the end-to-end
// latency.
func TestSpanPhasesTelescope(t *testing.T) {
	sp := NewSpan(7)
	sp.SubmittedSim, sp.AdmittedSim, sp.PlannedSim = 10, 60, 60
	sp.FirstLaunchSim, sp.DoneSim = 75, 300
	sp.Outcome = OutcomeDone

	phases := sp.Phases()
	wantNames := []string{"queue-wait", "plan-wait", "launch-wait", "execution"}
	if len(phases) != len(wantNames) {
		t.Fatalf("got %d phases %v, want %d", len(phases), phases, len(wantNames))
	}
	cur := sp.SubmittedSim
	var sum float64
	for i, p := range phases {
		if p.Name != wantNames[i] {
			t.Errorf("phase %d named %q, want %q", i, p.Name, wantNames[i])
		}
		if p.StartSim != cur {
			t.Errorf("phase %q starts at %g, previous ended at %g", p.Name, p.StartSim, cur)
		}
		if p.DurSim != p.EndSim-p.StartSim {
			t.Errorf("phase %q duration %g != end-start %g", p.Name, p.DurSim, p.EndSim-p.StartSim)
		}
		cur = p.EndSim
		sum += p.DurSim
	}
	if e2e := sp.E2ESim(); sum != e2e || e2e != 290 {
		t.Errorf("phase durations sum to %g, e2e %g, want 290", sum, e2e)
	}
}

// TestSpanPhasesSkipUnset: milestones that never happened are skipped
// and the next segment absorbs their time; a launch at simulated second
// zero is a legal timestamp, not "unset".
func TestSpanPhasesSkipUnset(t *testing.T) {
	sp := NewSpan(0)
	sp.SubmittedSim, sp.AdmittedSim, sp.DoneSim = 0, 0, 120
	sp.Outcome = OutcomeDone
	phases := sp.Phases()
	if len(phases) != 2 || phases[0].Name != "queue-wait" || phases[1].Name != "execution" {
		t.Fatalf("phases %v, want zero-length queue-wait then execution", phases)
	}
	if phases[1].DurSim != 120 {
		t.Errorf("execution absorbed %g, want 120", phases[1].DurSim)
	}

	unset := NewSpan(1)
	if got := unset.Phases(); got != nil {
		t.Errorf("span with no milestones has phases %v", got)
	}
	if unset.E2ESim() != -1 {
		t.Errorf("unfinished span e2e %g, want -1", unset.E2ESim())
	}
}

// TestSpanPhasesOutcomeRename: a cancelled or shed span names its final
// segment after the outcome.
func TestSpanPhasesOutcomeRename(t *testing.T) {
	sp := NewSpan(3)
	sp.SubmittedSim, sp.AdmittedSim, sp.DoneSim = 5, 10, 40
	sp.Outcome = OutcomeCancelled
	phases := sp.Phases()
	if n := len(phases); n == 0 || phases[n-1].Name != OutcomeCancelled {
		t.Errorf("cancelled span phases %v, want final phase %q", phases, OutcomeCancelled)
	}

	shed := NewSpan(-1)
	shed.SubmittedSim, shed.DoneSim = 30, 30
	shed.Outcome, shed.Reason = OutcomeShed, ReasonQueueCap
	phases = shed.Phases()
	if len(phases) != 1 || phases[0].Name != OutcomeShed || phases[0].DurSim != 0 {
		t.Errorf("shed span phases %v, want one zero-length %q phase", phases, OutcomeShed)
	}
}

// TestDeferralReasonsClosed guards the taxonomy the HTTP surfaces and
// smoke scripts validate against.
func TestDeferralReasonsClosed(t *testing.T) {
	want := map[string]bool{
		ReasonQueueCap: true, ReasonSolverBackpressure: true,
		ReasonDraining: true, ReasonFairShare: true, ReasonNoCapacity: true,
		ReasonBudgetExhausted: true,
	}
	if len(DeferralReasons) != len(want) {
		t.Fatalf("DeferralReasons %v does not match the documented taxonomy", DeferralReasons)
	}
	for _, r := range DeferralReasons {
		if !want[r] {
			t.Errorf("unexpected reason %q", r)
		}
	}
	s := NewSpan(2)
	if s.SubmittedSim != -1 || s.AdmittedSim != -1 || s.PlannedSim != -1 ||
		s.FirstLaunchSim != -1 || s.DoneSim != -1 {
		t.Errorf("NewSpan milestones not -1: %+v", s)
	}
}
