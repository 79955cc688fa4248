// Package lips is a from-scratch reproduction of "LiPS: A Cost-Efficient
// Data and Task Co-Scheduler for MapReduce" (Ehsan, Chen, Kang, Sion,
// Wong — IPDPS 2013).
//
// The repository contains the LiPS linear-programming co-scheduler
// (internal/core), a bounded-variable revised simplex solver replacing
// GLPK (internal/lp), a discrete-event Hadoop-like cluster simulator
// replacing the paper's EC2 testbed (internal/sim), the baseline
// schedulers the paper compares against (internal/sched), the paper's
// workloads (internal/workload) and an experiment harness regenerating
// every table and figure of the evaluation (internal/experiments).
//
// See README.md for a tour, DESIGN.md §1 for the module map, and
// EXPERIMENTS.md for paper-versus-measured results. The root-level
// BenchmarkExperiments regenerates each entry of experiments.All, the
// list cmd/lips-bench prints from:
//
//	go test -run '^$' -bench BenchmarkExperiments .
package lips
