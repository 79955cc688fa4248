// Package obstest holds the live-versus-replay check that the simulator,
// scheduler and command tests share: a run scraped live and the same
// run's trace replayed through obs.TraceSink must expose the same bytes.
package obstest

import (
	"slices"
	"strings"
	"testing"

	"lips/internal/obs"
)

// Replayed are the family prefixes a trace replay rebuilds.
var Replayed = []string{"lips_sim_", "lips_cost_", "lips_sched_", "lips_lp_"}

// SameExposition fails t unless live and replay render the same
// Prometheus text for every family named with one of prefixes, leaving
// out the wall-clock families (lips_sched_epoch_solve_seconds and the
// lips_lp_*_seconds_total counters), which a trace recorded without
// timings cannot carry. Live must expose a family under every prefix.
func SameExposition(t testing.TB, live, replay *obs.Registry, prefixes ...string) {
	t.Helper()
	same(t, live, replay, false, prefixes)
}

// SameTimedExposition is SameExposition for a trace recorded with
// timings: it holds the wall-clock families too.
func SameTimedExposition(t testing.TB, live, replay *obs.Registry, prefixes ...string) {
	t.Helper()
	same(t, live, replay, true, prefixes)
}

func same(t testing.TB, live, replay *obs.Registry, timed bool, prefixes []string) {
	t.Helper()
	want, got := lines(t, live, timed, prefixes), lines(t, replay, timed, prefixes)
	for _, p := range prefixes {
		if !slices.ContainsFunc(want, func(l string) bool { return strings.HasPrefix(l, "# HELP "+p) }) {
			t.Fatalf("live registry exposes no %s family", p)
		}
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

func lines(t testing.TB, reg *obs.Registry, timed bool, prefixes []string) []string {
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(b.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !timed && wallClock(name) {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				keep = append(keep, line)
				break
			}
		}
	}
	return keep
}

// wallClock reports whether an exposition line, its "# HELP "/"# TYPE "
// prefix cut, belongs to a machine-dependent family.
func wallClock(name string) bool {
	if strings.HasPrefix(name, obs.MSchedSolveSeconds) {
		return true
	}
	family, _, _ := strings.Cut(name, " ")
	family, _, _ = strings.Cut(family, "{")
	return strings.HasPrefix(family, "lips_lp_") && strings.HasSuffix(family, "_seconds_total")
}
