// Package dag handles workloads with inter-job dependencies. The paper
// (§III) notes that DAG-structured workloads "can be reduced to the
// independent task setting through leveling techniques, in which sets of
// mutually independent tasks of the DAG are organized into levels within
// which independent task set scheduling is then applied" (citing
// Alhusaini et al.). This package provides that reduction: cycle
// validation, longest-path leveling, and critical-path analysis. The
// simulator consumes the dependency lists directly (sim.Options.Deps) and
// gates each job's arrival on its prerequisites, which is exactly
// per-level scheduling when the scheduler is epoch-based like LiPS.
package dag

import (
	"fmt"

	"lips/internal/workload"
)

// Validate checks a dependency graph over n jobs: indices in range, no
// self-loops, and no cycles. Deps[j] lists the prerequisites of job j.
func Validate(n int, deps [][]int) error {
	if len(deps) > n {
		return fmt.Errorf("dag: %d dependency lists for %d jobs", len(deps), n)
	}
	for j, ds := range deps {
		for _, d := range ds {
			if d < 0 || d >= n {
				return fmt.Errorf("dag: job %d depends on out-of-range job %d", j, d)
			}
			if d == j {
				return fmt.Errorf("dag: job %d depends on itself", j)
			}
		}
	}
	if _, err := Levels(n, deps); err != nil {
		return err
	}
	return nil
}

// Levels partitions the jobs into topological levels by longest path from
// a source: level 0 holds jobs with no prerequisites, level k+1 the jobs
// all of whose prerequisites sit in levels ≤ k with at least one in level
// k. It returns an error if the graph has a cycle.
func Levels(n int, deps [][]int) ([][]int, error) {
	level := make([]int, n)
	state := make([]int, n) // 0 unvisited, 1 in progress, 2 done
	var visit func(j int) error
	visit = func(j int) error {
		switch state[j] {
		case 1:
			return fmt.Errorf("dag: cycle through job %d", j)
		case 2:
			return nil
		}
		state[j] = 1
		maxDep := -1
		if j < len(deps) {
			for _, d := range deps[j] {
				if err := visit(d); err != nil {
					return err
				}
				if level[d] > maxDep {
					maxDep = level[d]
				}
			}
		}
		level[j] = maxDep + 1
		state[j] = 2
		return nil
	}
	maxLevel := 0
	for j := 0; j < n; j++ {
		if err := visit(j); err != nil {
			return nil, err
		}
		if level[j] > maxLevel {
			maxLevel = level[j]
		}
	}
	out := make([][]int, maxLevel+1)
	for j := 0; j < n; j++ {
		out[level[j]] = append(out[level[j]], j)
	}
	return out, nil
}

// CriticalPathCPUSec returns the largest total CPU demand along any
// dependency chain — a lower bound on makespan·throughput for any
// schedule, useful for judging how much a DAG constrains the scheduler.
func CriticalPathCPUSec(w *workload.Workload, deps [][]int) (float64, error) {
	n := len(w.Jobs)
	if err := Validate(n, deps); err != nil {
		return 0, err
	}
	memo := make([]float64, n)
	seen := make([]bool, n)
	var visit func(j int) float64
	visit = func(j int) float64 {
		if seen[j] {
			return memo[j]
		}
		seen[j] = true
		best := 0.0
		if j < len(deps) {
			for _, d := range deps[j] {
				if v := visit(d); v > best {
					best = v
				}
			}
		}
		memo[j] = best + w.Jobs[j].TotalCPUSec()
		return memo[j]
	}
	longest := 0.0
	for j := 0; j < n; j++ {
		if v := visit(j); v > longest {
			longest = v
		}
	}
	return longest, nil
}

// FanOutIn builds a diamond: job 0 fans out to jobs 1..n-2, which all
// feed job n-1. n must be at least 3.
func FanOutIn(n int) [][]int {
	if n < 3 {
		panic(fmt.Sprintf("dag: FanOutIn needs ≥ 3 jobs, got %d", n))
	}
	deps := make([][]int, n)
	for i := 1; i < n-1; i++ {
		deps[i] = []int{0}
	}
	mids := make([]int, 0, n-2)
	for i := 1; i < n-1; i++ {
		mids = append(mids, i)
	}
	deps[n-1] = mids
	return deps
}
