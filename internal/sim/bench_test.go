package sim

import (
	"io"
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/trace"
	"lips/internal/workload"
)

// benchWorkload: a mid-size mixed batch on the 20-node testbed.
func benchWorkload(b *testing.B) (*cluster.Cluster, *workload.Workload) {
	b.Helper()
	c := cluster.Paper20(0.5)
	rng := rand.New(rand.NewSource(1))
	stores := make([]cluster.StoreID, len(c.Stores))
	for i := range stores {
		stores[i] = cluster.StoreID(i)
	}
	w := workload.Random(rng, stores, workload.RandomSpec{TotalTasks: 800})
	return c, w
}

// BenchmarkSimulatorThroughput measures end-to-end event processing for a
// full run (≈3 events per task) under the greedy stub.
func BenchmarkSimulatorThroughput(b *testing.B) {
	c, w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(2)), allStores(c))
		s := New(c, w, p, greedyStub(), Options{})
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.TotalTasks()), "tasks/run")
}

// BenchmarkSimulatorTracing measures the same run with a JSONL tracer
// and sampler enabled, to quantify the tracing overhead against
// BenchmarkSimulatorThroughput's disabled (nop-tracer) path.
func BenchmarkSimulatorTracing(b *testing.B) {
	c, w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(2)), allStores(c))
		sink := trace.NewJSONL(io.Discard)
		s := New(c, w, p, greedyStub(), Options{Tracer: sink, SampleIntervalSec: 60})
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkSimulatorSharedLinks measures the processor-sharing network
// model's overhead relative to the dedicated-rate path.
func BenchmarkSimulatorSharedLinks(b *testing.B) {
	c, w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(2)), allStores(c))
		s := New(c, w, p, greedyStub(), Options{SharedLinks: true})
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput10k is the paper-scale gate: a 10k-node
// random cluster running a 1M-task random workload under the batch-stub
// scheduler. Generation happens outside the timer; the timed region is
// pure event processing; tasks/run over ns/op is tasks per second.
func BenchmarkSimulatorThroughput10k(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	c, w := buildScaleRun(10_000, 1_000_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(2)), c.StoreIDs())
		s := New(c, w, p, &batchStub{}, Options{})
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.TotalTasks()), "tasks/run")
}

// BenchmarkDispatch isolates the idle-node sweep: a 1024-node cluster
// with every slot free and a scheduler that launches nothing, so each
// KickIdleNodes pays for one full bitset walk plus the batched
// notification and nothing else.
func BenchmarkDispatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := cluster.Random(rng, cluster.RandomSpec{Nodes: 1024})
	wb := workload.NewBuilder()
	wb.AddNoInputJob("idle", "u", 1, 1, 0)
	w := wb.Build()
	nop := &batchStub{onFill: nil}
	s := New(c, w, nil, nop, Options{})
	// Consume the single task so every later kick finds no pending work
	// and the sweep cost dominates.
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.KickIdleNodes()
	}
}

func allStores(c *cluster.Cluster) []cluster.StoreID {
	out := make([]cluster.StoreID, len(c.Stores))
	for i := range out {
		out[i] = cluster.StoreID(i)
	}
	return out
}
