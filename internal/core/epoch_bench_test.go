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

// BenchmarkEpochWide measures the cold solve of one stream-1k-wide-shaped
// epoch LP, built by BuildOnlineModel as sched.LiPS builds it: the
// simplex code the live path spends most of that workload's epoch in.
func BenchmarkEpochWide(b *testing.B) {
	m, err := BuildOnlineModel(wideInstance(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := m.Solve(lp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(plan.Iters), "iters")
	}
	b.ReportMetric(float64(m.NumCons()), "rows")
	b.ReportMetric(float64(m.NumVars()), "cols")
}
