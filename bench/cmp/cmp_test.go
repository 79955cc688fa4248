package main

import (
	"testing"

	"lips/bench/stat"
)

func TestVerdict(t *testing.T) {
	lower := spec{Name: "epoch_wall_ms_p50", Better: "lower", Bound: 0.10}
	higher := spec{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	failed := spec{Name: stat.FailedFrac, Better: "lower"}
	tight := func(m float64) stat.Summary { return stat.Summary{N: 5, Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := func(m float64) stat.Summary { return stat.Summary{N: 5, Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	for _, tc := range []struct {
		name       string
		m          spec
		base, next stat.Summary
		want       string
	}{
		{"slower by more than the bound", lower, tight(100), tight(112), "worse"},
		{"slower within the bound", lower, tight(100), tight(108), "same"},
		{"faster", lower, tight(100), tight(50), "same"},
		{"throughput down by more than the bound", higher, tight(100), tight(88), "worse"},
		{"throughput up", higher, tight(100), tight(130), "same"},
		{"spread wider than the bound hides a small move", lower, wide(100), tight(104), "unresolved"},
		{"a move beyond the bound is worse whatever the spread", lower, wide(100), wide(115), "worse"},
		{"any new failure is worse", failed, stat.Summary{N: 5}, stat.Summary{N: 5, Median: 0.001}, "worse"},
		{"no failures either side", failed, stat.Summary{N: 5}, stat.Summary{N: 5}, "same"},
	} {
		if got, _ := verdict(tc.m, tc.base, tc.next); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
