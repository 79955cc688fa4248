// Package obstest holds the live-versus-replay check that the simulator,
// scheduler and command tests share: a run scraped live and the same
// run's trace replayed through obs.TraceSink must expose the same bytes.
package obstest

import (
	"strings"
	"testing"

	"lips/internal/obs"
)

// Replayed are the family prefixes a trace replay rebuilds.
var Replayed = []string{"lips_sim_", "lips_cost_", "lips_sched_"}

// SameExposition fails t unless live and replay render the same
// Prometheus text for every family named with one of prefixes, leaving
// out only the wall-clock lips_sched_epoch_solve_seconds.
func SameExposition(t testing.TB, live, replay *obs.Registry, prefixes ...string) {
	t.Helper()
	want, got := lines(t, live, prefixes), lines(t, replay, prefixes)
	if len(want) == 0 {
		t.Fatalf("live registry exposes no %v family", prefixes)
	}
	for len(want) < len(got) {
		want = append(want, "")
	}
	for len(got) < len(want) {
		got = append(got, "")
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("replay exposition diverges from live at line %d:\n live   %q\n replay %q", i+1, want[i], got[i])
		}
	}
}

func lines(t testing.TB, reg *obs.Registry, prefixes []string) []string {
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(b.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && !strings.HasPrefix(name, obs.MSchedSolveSeconds) {
				keep = append(keep, line)
				break
			}
		}
	}
	return keep
}
