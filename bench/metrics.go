package main

// metric is one named reading with its unit, as BENCHMARK.json lists it.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd is what a tenant or an operator of the system sees, defined so
// that every workload has every one of them and none restates an input.
// The bound is the share of the parent's median by which a later change
// may make the metric worse.
//
// The bounds are what the reference box supports, not what one would
// wish for. Host time there drifts by ±10 % over tens of seconds, for
// wall and CPU alike and whatever statistic a 10 s run takes, so every
// host-time metric has the widest bound allowed; the tail is reported as
// p90 over p50, which the drift cancels out of, and the absolute p90 is
// a per-layer reading. Simulated outputs repeat exactly for one seed on
// the five deterministic workloads (bench/cmp compares them so); their
// bounds cover the spread between seeds, widest on serve-live-1k, where
// simulated time is coupled to the host's ticker, and on the batch's
// makespan, which one long job decides.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"epoch_wall_ms_p50", "ms", "lower", 0.25},
	{"epoch_wall_p90_over_p50", "ratio", "lower", 0.25},
	{"retained_heap_mb", "MB", "lower", 0.15},
	{"cost_usd", "usd", "lower", 0.05},
	{"makespan_sim_s", "sim_s", "lower", 0.20},
	{"job_e2e_sim_s_p50", "sim_s", "lower", 0.10},
	{"job_e2e_sim_s_p95", "sim_s", "lower", 0.15},
}

// perLayer is measured in the traced pass. A layer that a workload does
// not reach reads 0 there, which is itself the statement that the
// workload bypasses it.
var perLayer = []metric{
	// serve: the daemon's HTTP edge and epoch loop (serve-live-1k).
	{"serve.submit_us_p50", "us", "lower", 0},
	{"serve.submit_us_p90", "us", "lower", 0},
	{"serve.submit_us_p99", "us", "lower", 0},
	{"serve.status_us_p50", "us", "lower", 0},
	{"serve.status_us_p99", "us", "lower", 0},
	{"serve.stats_us_p50", "us", "lower", 0},
	{"serve.metrics_scrape_ms_p50", "ms", "lower", 0},
	{"serve.metrics_scrape_bytes", "count", "lower", 0},
	{"serve.http_2xx", "count", "higher", 0},
	{"serve.http_429", "count", "lower", 0},
	{"serve.http_5xx", "count", "lower", 0},
	{"serve.epoch_wall_ms_p50", "ms", "lower", 0},
	{"serve.epoch_wall_ms_p99", "ms", "lower", 0},
	{"serve.epoch_overrun_frac", "frac", "lower", 0},
	{"serve.queue_depth_max", "count", "lower", 0},
	{"serve.admitted_per_epoch_max", "count", "lower", 0},
	{"serve.drain_s", "s", "lower", 0},
	{"load.late_ms_p99", "ms", "lower", 0},
	// sched: LiPS's epoch, from its exported counters.
	{"sched.epochs", "count", "lower", 0},
	{"sched.lp_jobs_p50", "count", "lower", 0},
	{"sched.solve_ms_total", "ms", "lower", 0},
	{"sched.solve_share", "frac", "lower", 0},
	{"sched.nonsolve_ms_total", "ms", "lower", 0},
	{"sched.lp_iters", "count", "lower", 0},
	{"sched.warm_attempted", "count", "higher", 0},
	{"sched.warm_accepted", "count", "higher", 0},
	{"sched.tasks_moved", "count", "higher", 0},
	{"sched.blocks_moved", "count", "lower", 0},
	{"sched.deferred_tasks_total", "count", "lower", 0},
	// core: kernel replay of one epoch's instance.
	{"core.instance_ms", "ms", "lower", 0},
	{"core.model_ms", "ms", "lower", 0},
	{"core.round_ms", "ms", "lower", 0},
	{"core.colgen_cold_ms", "ms", "lower", 0},
	{"core.colgen_seeded_ms", "ms", "lower", 0},
	{"core.colgen_rounds", "count", "lower", 0},
	{"core.colgen_columns", "count", "lower", 0},
	{"core.units", "count", "lower", 0},
	{"core.lp_gap_pct", "%", "lower", 0},
	// lp: the simplex on the replay model.
	{"lp.rows", "count", "lower", 0},
	{"lp.cols", "count", "lower", 0},
	{"lp.nnz", "count", "lower", 0},
	{"lp.solve_cold_ms", "ms", "lower", 0},
	{"lp.solve_warm_ms", "ms", "lower", 0},
	{"lp.iters_cold", "count", "lower", 0},
	{"lp.iters_warm", "count", "lower", 0},
	{"lp.phase1_iters", "count", "lower", 0},
	{"lp.refactorizations", "count", "lower", 0},
	{"lp.presolve_rows_removed", "count", "higher", 0},
	{"lp.presolve_cols_removed", "count", "higher", 0},
	{"lp.pricing_share", "frac", "lower", 0},
	{"lp.ftran_btran_share", "frac", "lower", 0},
	// sim: the event loop and its tables.
	{"sim.tasks_total", "count", "higher", 0},
	{"sim.tasks_per_s", "1/s", "higher", 0},
	{"sim.addjob_us_p50", "us", "lower", 0},
	{"sim.step_ms_p50", "ms", "lower", 0},
	{"sim.sched_callback_ms", "ms", "lower", 0},
	{"sim.self_ms", "ms", "lower", 0},
	{"sim.heap_bytes_per_task", "count", "lower", 0},
	{"sim.epoch_wall_growth", "ratio", "lower", 0},
	{"epoch.wall_ms_p90", "ms", "lower", 0},
	// process and set-up.
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.alloc_mb_per_job", "MB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms_total", "ms", "lower", 0},
	{"setup.cluster_ms", "ms", "lower", 0},
	{"setup.workload_ms", "ms", "lower", 0},
	{"setup.construct_ms", "ms", "lower", 0},
	{"setup.first_epoch_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	// paper100-swim's own result, and the failure share of the run.
	{"paper.cost_saving_vs_delay_pct", "%", "higher", 0},
	{"paper.cost_delay_usd", "usd", "lower", 0},
	{"run.failed_frac", "frac", "lower", 0},
}

// pooled names the per-layer percentiles taken over samples pooled from
// every traced round, so that a p99 has the tail it needs.
var pooled = []struct {
	name, samples string
	q             float64
}{
	{"serve.submit_us_p50", "submit_us", 0.50},
	{"serve.submit_us_p90", "submit_us", 0.90},
	{"serve.submit_us_p99", "submit_us", 0.99},
	{"serve.status_us_p50", "status_us", 0.50},
	{"serve.status_us_p99", "status_us", 0.99},
	{"serve.stats_us_p50", "stats_us", 0.50},
	{"serve.metrics_scrape_ms_p50", "scrape_ms", 0.50},
	{"serve.epoch_wall_ms_p50", "serve_epoch_ms", 0.50},
	{"serve.epoch_wall_ms_p99", "serve_epoch_ms", 0.99},
	{"load.late_ms_p99", "late_ms", 0.99},
	{"sched.lp_jobs_p50", "lp_jobs", 0.50},
	{"sim.addjob_us_p50", "addjob_us", 0.50},
	{"sim.step_ms_p50", "step_ms", 0.50},
	{"epoch.wall_ms_p90", "epoch_ms", 0.90},
}
