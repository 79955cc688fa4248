package sched

import (
	"testing"

	"lips/internal/cluster"
	"lips/internal/sim"
	"lips/internal/workload"
)

// TestFullMapReducePipeline runs map + shuffle + reduce end to end: a sort
// job's reduce stage is a companion job over its 256 MB shuffle output,
// gated on the map job through sim.Options.Deps, beside a map-only grep
// job, scheduled by LiPS and by the Hadoop default scheduler.
func TestFullMapReducePipeline(t *testing.T) {
	// reduce is the reduce side's intensity: 0.5 ECU-s/MB, sort+merge
	// dominated.
	reduce := workload.Archetype{Name: "reduce", Property: workload.IOBound, CPUSecPerBlock: 32}
	build := func() (*cluster.Cluster, *workload.Workload, [][]int) {
		wb := workload.NewBuilder()
		wb.AddInputJob("sortjob", "swim", workload.Stress2, 512, 0, 0) // 8 maps
		wb.AddInputJob("grepjob", "swim", workload.Grep, 256, 1, 5)    // 4 maps, map-only
		// The shuffle stages where the map input lived; reducers pull it
		// across the network, one reduce task per 64 MB partition.
		wb.AddInputJob("sortjob-reduce", "swim", reduce, 256, 0, 0)
		return mixedCluster(), wb.Build(), [][]int{nil, nil, {0}}
	}

	for _, mk := range []struct {
		name string
		make func() sim.Scheduler
		opts sim.Options
	}{
		{"fifo", func() sim.Scheduler { return NewFIFO() }, sim.Options{}},
		{"lips", func() sim.Scheduler { return NewLiPS(120) }, sim.Options{TaskTimeoutSec: 1200}},
	} {
		c, w, deps := build()
		opts := mk.opts
		opts.Deps = deps
		scheduler := mk.make()
		r, err := sim.New(c, w, nil, scheduler, opts).Run()
		if err != nil {
			t.Fatalf("%s: %v", mk.name, err)
		}
		if l, ok := scheduler.(*LiPS); ok && l.Err != nil {
			t.Fatalf("lips: %v", l.Err)
		}
		// The reduce stage (job 2) must finish only after its map stage
		// (job 0).
		if r.JobDone[2] <= r.JobDone[0] {
			t.Errorf("%s: reduce finished at %g before maps at %g", mk.name, r.JobDone[2], r.JobDone[0])
		}
		for j, done := range r.JobDone {
			if done <= 0 {
				t.Errorf("%s: job %d (%s) unfinished", mk.name, j, w.Jobs[j].Name)
			}
		}
	}
}
