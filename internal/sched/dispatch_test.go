package sched

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/sim"
	"lips/internal/trace"
	"lips/internal/workload"
)

// TestSlotSchedulersDispatchGolden pins the four slot- and round-driven
// schedulers on a reduced SWIM day over Paper100, with speculation and
// random crashes, store losses and stragglers: per scheduler the SHA-256
// of the JSONL trace (every launch, kill, fault replay and sample), the
// cost, makespan, locality mix and fault counters, as lines of
// testdata/dispatch.golden. The lines were recorded while every
// scheduler still rescanned each arrived job's task table on every
// decision; the job index must keep reproducing them bit for bit. To
// re-record after an intended change, paste the printed lines.
func TestSlotSchedulersDispatchGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/dispatch.golden")
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Paper100()
	spec := workload.SWIMSpec{Jobs: 40, DurationSec: 40 * 216}
	w := workload.SWIM(rand.New(rand.NewSource(9)), c.StoreIDs(), spec)
	faults := sim.RandomFaultPlan(9, c, sim.FaultSpec{
		Crashes: 10, StoreLosses: 3, Slowdowns: 3, WindowSec: spec.DurationSec,
	})
	for _, tc := range []struct {
		name  string
		sched func() sim.Scheduler
	}{
		{"swim-fifo", func() sim.Scheduler { return NewFIFO() }},
		{"swim-delay", func() sim.Scheduler { return NewDelay() }},
		{"swim-fair", func() sim.Scheduler { return NewFair() }},
		{"swim-quincy", func() sim.Scheduler { return NewQuincy() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := w.Placement()
			p.Shuffle(rand.New(rand.NewSource(1009)), c.StoreIDs())
			var buf bytes.Buffer
			sink := trace.NewJSONL(&buf)
			r := runSched(t, c, w, p, tc.sched(), sim.Options{
				Speculative: true, Faults: faults, Tracer: sink, SampleIntervalSec: 600,
			})
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			f := r.Faults
			got := fmt.Sprintf("%s trace=%x cost=%d makespan=%v locality=%v faults=%d/%d/%d/%d/%d/%d/%d",
				tc.name, sha256.Sum256(buf.Bytes()), int64(r.TotalCost()), r.Makespan, r.Locality,
				f.NodesCrashed, f.NodesRecovered, f.StoresLost, f.Slowdowns,
				f.TasksReexecuted, f.BlocksReplicated, f.BlocksLost)
			if !strings.Contains("\n"+string(golden), "\n"+got+"\n") {
				t.Errorf("not a line of testdata/dispatch.golden:\n%s", got)
			}
		})
	}
}
