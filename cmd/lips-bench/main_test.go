package main

import (
	"strings"
	"testing"

	"lips/internal/experiments"
)

// TestRunSingleExperiments selects each registry entry by name: run
// prints that entry's section alone, titled as the registry says.
// TestQuickGolden holds the bytes of every section under "all".
func TestRunSingleExperiments(t *testing.T) {
	for _, e := range experiments.All {
		out := captureStdout(t, func() error { return run(e.Name, experiments.Config{Quick: true, Seed: 1}) })
		if !strings.HasPrefix(out, "== "+e.Title+" ==\n") || strings.Count(out, "\n== ") != 0 {
			t.Errorf("%s printed:\n%s", e.Name, out)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", experiments.Config{Quick: true, Seed: 1}); err == nil {
		t.Error("unknown experiment accepted")
	}
}
