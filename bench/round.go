package main

import (
	"fmt"
	"math"
	"time"

	"lips/bench/stat"
	"lips/internal/cost"
)

// Set-up parts, in the order a round goes through them.
const (
	setupCluster = iota
	setupWorkload
	setupConstruct
	setupFirstEpoch
	setupParts
)

// simOut is what the simulated cluster produced. A change that only makes
// the program faster must leave it bit-identical for a given seed.
type simOut struct {
	costUC         int64
	makespan       float64
	e2eP50, e2eP95 float64
}

// round is one complete execution of a workload: set-up, then a timed
// region that ends when every job is terminal. A run repeats the same
// round on the same inputs until its time is used, which gives set-up and
// throughput several samples and makes every repetition a determinism
// check on the simulated outputs.
type round struct {
	setup     [setupParts]time.Duration
	wall, cpu time.Duration // the timed region
	// busy is the part of the timed region the system spent working. It
	// is the wall everywhere but on serve-live-1k, whose wall is set by
	// the offered rate and whose busy time is the sum of its epoch walls.
	busy    time.Duration
	jobs    int       // jobs that completed in the timed region
	tasks   int       // their map tasks
	epochMS []float64 // host wall of each epoch of the timed region
	out     simOut

	attempted, failed int
	errs              []string // correctness checks that did not hold

	allocMB, gcPauseMS float64
	gcCycles           int
	heapMB             float64 // filled by run after the round returns

	layer   map[string]float64   // per-layer counts and totals
	samples map[string][]float64 // per-layer timing samples, pooled by run
	keep    []any                // what retained_heap_mb counts as live
	replay  *replayInput         // what the kernel replay runs on; nil without an LP
}

func newRound() *round {
	return &round{layer: make(map[string]float64), samples: make(map[string][]float64)}
}

func (r *round) failf(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *round) setupTotal() time.Duration {
	var d time.Duration
	for _, p := range r.setup {
		d += p
	}
	return d
}

// timedRegion brackets the timed part of a round with the process
// counters that have to be read at both ends.
type timedRegion struct {
	t0  time.Time
	cpu time.Duration
	mem memMark
}

func beginTimed() timedRegion {
	return timedRegion{mem: markMem(), cpu: cpuTime(), t0: time.Now()}
}

func (t timedRegion) end(r *round) {
	r.wall += time.Since(t.t0)
	r.cpu += cpuTime() - t.cpu
	m := markMem()
	r.allocMB += float64(m.totalAlloc-t.mem.totalAlloc) / (1 << 20)
	r.gcCycles += int(m.numGC - t.mem.numGC)
	r.gcPauseMS += float64(m.pauseNS-t.mem.pauseNS) / 1e6
}

// result is what one run reports.
type result struct {
	correct           bool
	attempted, failed int
	errs              []string
	metrics           map[string]stat.Reading
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// over maps rounds to one number each.
func over(rounds []*round, f func(*round) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// endToEndReadings folds the untraced rounds of a run into its end-to-end
// metrics. Rates and set-up are medians over rounds, so one disturbed
// round does not move them; epoch walls are pooled, so the p90 under the
// tail ratio has ten samples beyond it. Simulated outputs are medians over
// rounds too: on a deterministic workload every round must repeat them
// exactly, and on serve-live-1k, where they are coupled to the host's
// ticker, no single round decides.
func endToEndReadings(rounds []*round) map[string]float64 {
	var epochs []float64
	for _, r := range rounds {
		epochs = append(epochs, r.epochMS...)
	}
	p50, _ := stat.Percentile(epochs, 0.50)
	p90, _ := stat.Percentile(epochs, 0.90)
	med := func(f func(*round) float64) float64 { return stat.Median(over(rounds, f)) }
	return map[string]float64{
		"setup_s":                 med(func(r *round) float64 { return r.setupTotal().Seconds() }),
		"jobs_per_s":              med(func(r *round) float64 { return float64(r.jobs) / r.busy.Seconds() }),
		"cpu_ms_per_job":          med(func(r *round) float64 { return ms(r.cpu) / float64(r.jobs) }),
		"epoch_wall_ms_p50":       p50,
		"epoch_wall_p90_over_p50": p90 / p50,
		"retained_heap_mb":        med(func(r *round) float64 { return r.heapMB }),
		"cost_usd":                med(func(r *round) float64 { return cost.Money(r.out.costUC).ToDollars() }),
		"makespan_sim_s":          med(func(r *round) float64 { return r.out.makespan }),
		"job_e2e_sim_s_p50":       med(func(r *round) float64 { return r.out.e2eP50 }),
		"job_e2e_sim_s_p95":       med(func(r *round) float64 { return r.out.e2eP95 }),
	}
}

// perLayerReadings folds the traced rounds into the per-layer metrics:
// the median over rounds of each count or total, and percentiles over
// the samples of all rounds together.
func perLayerReadings(rounds []*round) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = stat.Median(over(rounds, func(r *round) float64 { return r.layer[m.name] }))
	}
	for _, p := range pooled {
		var all []float64
		for _, r := range rounds {
			all = append(all, r.samples[p.samples]...)
		}
		out[p.name], _ = stat.Percentile(all, p.q)
	}
	return out
}

// fillProcessLayer derives the per-layer readings every workload has from
// the round's own counters.
func (r *round) fillProcessLayer() {
	l := r.layer
	l["setup.cluster_ms"] = ms(r.setup[setupCluster])
	l["setup.workload_ms"] = ms(r.setup[setupWorkload])
	l["setup.construct_ms"] = ms(r.setup[setupConstruct])
	l["setup.first_epoch_ms"] = ms(r.setup[setupFirstEpoch])
	l["proc.peak_rss_mb"] = peakRSSMB()
	l["proc.gc_cycles"] = float64(r.gcCycles)
	l["proc.gc_pause_ms_total"] = r.gcPauseMS
	if r.jobs > 0 {
		l["proc.alloc_mb_per_job"] = r.allocMB / float64(r.jobs)
	}
	if r.tasks > 0 {
		l["sim.tasks_total"] = float64(r.tasks)
		l["sim.tasks_per_s"] = float64(r.tasks) / r.busy.Seconds()
		l["sim.heap_bytes_per_task"] = r.heapMB * (1 << 20) / float64(r.tasks)
	}
	if r.attempted > 0 {
		l["run.failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
}

// sameBits reports whether two simulated outputs are the same to the bit.
func sameBits(a, b simOut) bool {
	return a.costUC == b.costUC &&
		math.Float64bits(a.makespan) == math.Float64bits(b.makespan) &&
		math.Float64bits(a.e2eP50) == math.Float64bits(b.e2eP50) &&
		math.Float64bits(a.e2eP95) == math.Float64bits(b.e2eP95)
}
