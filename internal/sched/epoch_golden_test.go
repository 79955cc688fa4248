package sched

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/obs"
	"lips/internal/sim"
	"lips/internal/trace"
	"lips/internal/workload"
)

// TestEpochGolden pins everything one LiPS run says about its own epochs,
// through every channel at once: the SHA-256 of the JSONL trace, the
// SHA-256 of the lips_sched_* and lips_lp_* exposition lines (the
// machine-dependent *_seconds* families dropped), the run totals, and the
// (epoch, jobs, deferred) triple LastEpochStats reports after each epoch.
// The lines were recorded before the epoch record replaced the per-channel
// copies; the record must keep reproducing them byte for byte. What was
// last-round-only under ColGen at that commit stays out of the line: the
// phase-1 and refactorization totals, and the phase1 key of that run's
// epoch events. To re-record after an intended change, paste the printed
// lines.
func TestEpochGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/epoch.golden")
	if err != nil {
		t.Fatal(err)
	}
	// CPU-heavy jobs arriving across the first epochs: several epochs with
	// several queued jobs each, deferrals, and work in flight when the
	// faults land.
	heavy := func() (*cluster.Cluster, *workload.Workload) {
		rng := rand.New(rand.NewSource(7))
		arch := workload.Archetype{Name: "heavy", Property: workload.CPUBound, CPUSecPerBlock: 600}
		wb := workload.NewBuilder()
		wb.AddNoInputJob("pi", "user1", 4, workload.PiTaskCPUSec, 0)
		for i, at := range []float64{0, 0, 150, 450, 700} {
			wb.AddInputJob(fmt.Sprintf("heavy%d", i), fmt.Sprintf("user%d", i%3), arch,
				float64(8+4*i)*64, cluster.StoreID(rng.Intn(3)), at)
		}
		wb.AddInputJob("wc", "user2", workload.WordCount, 16*64, cluster.StoreID(rng.Intn(3)), 300)
		return mixedCluster(), wb.Build()
	}
	for _, tc := range []struct {
		name   string
		build  func() (*cluster.Cluster, *workload.Workload)
		colgen bool
		faults func(*cluster.Cluster) *sim.FaultPlan
	}{
		{name: "warm", build: warmStartScenario},
		{name: "colgen-churn", build: heavy, colgen: true,
			faults: func(*cluster.Cluster) *sim.FaultPlan {
				return &sim.FaultPlan{Faults: []sim.Fault{
					{At: 210, Kind: sim.FaultNodeDown, Node: 0},
					{At: 400, Kind: sim.FaultNodeUp, Node: 0},
				}}
			}},
		{name: "random-faults", build: heavy,
			faults: func(c *cluster.Cluster) *sim.FaultPlan {
				return sim.RandomFaultPlan(5, c, sim.FaultSpec{Crashes: 2, StoreLosses: 1, Slowdowns: 1, WindowSec: 600})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, w := tc.build()
			l := NewLiPS(200)
			l.ColGen = tc.colgen
			reg := obs.NewRegistry()
			var buf bytes.Buffer
			sink := trace.NewJSONL(&buf)
			opts := sim.Options{
				TaskTimeoutSec: 1e9, Tracer: sink, SampleIntervalSec: 50,
				Metrics: reg, MetricsSampleSec: 50,
			}
			if tc.faults != nil {
				opts.Faults = tc.faults(c)
			}
			s := sim.New(c, w, w.Placement(), l, opts)
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			// One step per LiPS tick, so every epoch's record is read before
			// the next one replaces it.
			var seq strings.Builder
			last := 0
			for at := 0.0; !s.Drained(); at += l.EpochSec {
				if at > 1e6 {
					t.Fatal("run did not drain")
				}
				if err := s.StepUntil(at); err != nil {
					t.Fatal(err)
				}
				if es, ok := l.LastEpochStats(); ok && es.Epoch != last {
					last = es.Epoch
					fmt.Fprintf(&seq, "(%d,%d,%d)", es.Epoch, es.Jobs, es.Deferred)
				}
			}
			if l.Err != nil {
				t.Fatal(l.Err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if last != l.Epochs {
				t.Errorf("read %d epoch records over %d epochs", last, l.Epochs)
			}

			var prom bytes.Buffer
			if err := reg.WriteProm(&prom); err != nil {
				t.Fatal(err)
			}
			var kept strings.Builder
			for _, line := range strings.SplitAfter(prom.String(), "\n") {
				if (strings.Contains(line, "lips_sched_") || strings.Contains(line, "lips_lp_")) &&
					!strings.Contains(line, "_seconds") {
					kept.WriteString(line)
				}
			}
			tr := buf.Bytes()
			if tc.colgen {
				tr = regexp.MustCompile(`"phase1":\d+,`).ReplaceAll(tr, nil)
			}
			ss := l.Solver
			got := fmt.Sprintf("%s trace=%x metrics=%x epochs=%d lpiters=%d tasks=%d blocks=%d solver=%d/%d/%d/%d/%d/%d records=%s",
				tc.name, sha256.Sum256(tr), sha256.Sum256([]byte(kept.String())),
				l.Epochs, l.LPIters, l.TasksMoved, l.BlocksMoved,
				ss.Solves, ss.WarmAttempted, ss.WarmAccepted, ss.Iters,
				ss.ColGenRounds, ss.ColGenColumns, seq.String())
			if !strings.Contains("\n"+string(golden), "\n"+got+"\n") {
				t.Errorf("not a line of testdata/epoch.golden:\n%s", got)
			}
		})
	}
}
