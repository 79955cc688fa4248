package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/hdfs"
	"lips/internal/lp"
	"lips/internal/workload"
)

// wideInstance is one epoch of the stream-1k-wide shape: 24 grep jobs of
// 11–42 blocks each on a 1000-node random cluster, every object whole on
// its origin store, planned over the aggregated units with a 60 s
// horizon — 948 rows by 8640 columns, as the workload's traced LP.
func wideInstance(b *testing.B) *Instance {
	rng := rand.New(rand.NewSource(1))
	c := cluster.Random(rng, cluster.RandomSpec{Nodes: 1000})
	const n = 24
	jobs, objects := make([]workload.Job, n), make([]hdfs.DataObject, n)
	for i := range jobs {
		blocks := 11 + rng.Intn(32)
		name := fmt.Sprintf("grep-%d", i)
		objects[i] = hdfs.DataObject{
			ID: hdfs.ObjectID(i), Name: name, SizeMB: float64(blocks) * 64,
			Origin: c.Stores[rng.Intn(len(c.Stores))].ID,
		}
		jobs[i] = workload.Job{
			ID: i, Name: name, Archetype: workload.Grep.Name,
			NumTasks: blocks, Object: objects[i].ID, InputMB: objects[i].SizeMB,
			AccessFrac: 0.5 + 0.5*rng.Float64(), CPUSecPerMB: workload.Grep.CPUSecPerMB(),
		}
	}
	in, err := NewInstance(c, jobs, objects, hdfs.NewPlacement(objects), InstanceOptions{Aggregate: true, Horizon: 60})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// hetero10k is the stream-10k-hetero shape: cluster.Random with 10 000
// nodes of 60 types drawn from seed 1, as the workload's cluster, over its
// 180 aggregated units, and one epoch's 8 grep jobs of 4–15 blocks, every
// object whole on its origin store. The function it returns lays that
// epoch over the units with a 60 s horizon, as each sched.LiPS epoch does.
func hetero10k(tb testing.TB) func() *Instance {
	_, build := hetero10kOn(tb)
	return build
}

// hetero10kOn is hetero10k with the cluster it draws.
func hetero10kOn(tb testing.TB) (*cluster.Cluster, func() *Instance) {
	c := cluster.Random(rand.New(rand.NewSource(1)), cluster.RandomSpec{Nodes: 10000, Types: 60})
	u := NewUnits(c, true)
	rng := rand.New(rand.NewSource(2))
	const n = 8
	jobs, objects := make([]workload.Job, n), make([]hdfs.DataObject, n)
	fractions := make([]map[cluster.StoreID]float64, n)
	for i := range jobs {
		blocks := 4 + rng.Intn(12)
		name := fmt.Sprintf("grep-%d", i)
		objects[i] = hdfs.DataObject{
			ID: hdfs.ObjectID(i), Name: name, SizeMB: float64(blocks) * 64,
			Origin: c.Stores[rng.Intn(len(c.Stores))].ID,
		}
		fractions[i] = map[cluster.StoreID]float64{objects[i].Origin: 1}
		jobs[i] = workload.Job{
			ID: i, Name: name, Archetype: workload.Grep.Name,
			NumTasks: blocks, Object: objects[i].ID, InputMB: objects[i].SizeMB,
			AccessFrac: 0.5 + 0.5*rng.Float64(), CPUSecPerMB: workload.Grep.CPUSecPerMB(),
		}
	}
	return c, func() *Instance {
		in, err := u.Instance(jobs, objects, fractions, 60)
		if err != nil {
			tb.Fatal(err)
		}
		return in
	}
}

// BenchmarkInstance10k measures the glue of one stream-10k-hetero epoch
// before its first solve, on the live path's calls: Units.Instance over
// the 180 units, FilterMachines with a node down, and NewOnlineColGen's
// restricted master with its greedy seed and price classes, released as
// sched.LiPS releases it, so each build reuses the one before's storage.
func BenchmarkInstance10k(b *testing.B) {
	build := hetero10k(b)
	down := build().Machines[0].Nodes[0]
	alive := func(n cluster.NodeID) bool { return n != down }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := build()
		in.FilterMachines(alive)
		cg, err := NewOnlineColGen(in, ColGenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cg.Release()
	}
}

// BenchmarkEpochWide measures one stream-1k-wide-shaped epoch as
// sched.LiPS solves it: SolveOnlineColGen builds the restricted master
// over wideInstance and prices it to the full LP's optimum — the code the
// live path spends most of that workload's epoch in.
func BenchmarkEpochWide(b *testing.B) {
	in := wideInstance(b)
	var plan *Plan
	var st lp.ColGenStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if plan, st, err = SolveOnlineColGen(in, ColGenOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(plan.Iters), "iters")
	b.ReportMetric(float64(st.Rounds), "rounds")
	b.ReportMetric(float64(plan.Rows), "rows")
	b.ReportMetric(float64(plan.Cols), "cols")
}

// BenchmarkEpochHetero measures one stream-10k-hetero epoch's solve as
// sched.LiPS runs it: the restricted master over hetero10k's 180 units,
// each its own price class, so pricing the closed ones is a share of the
// epoch that BenchmarkEpochWide's shape does not show, solved and then
// released to the pool.
func BenchmarkEpochHetero(b *testing.B) {
	build := hetero10k(b)
	var plan *Plan
	var st lp.ColGenStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg, err := NewOnlineColGen(build(), ColGenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if plan, st, err = cg.Solve(ColGenOptions{}); err != nil {
			b.Fatal(err)
		}
		cg.Release()
	}
	b.StopTimer()
	b.ReportMetric(float64(plan.Iters), "iters")
	b.ReportMetric(float64(st.Rounds), "rounds")
	b.ReportMetric(float64(st.OracleTime.Microseconds())/1e3, "oracle-ms")
}
