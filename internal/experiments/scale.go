package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"lips/internal/cluster"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/workload"
)

// ScaleRow is one rung of the cluster-size ladder: a random cluster of
// Nodes nodes running a random Tasks-task workload under the Scale
// scheduler, with the simulator's wall-clock throughput alongside the
// usual schedule quality numbers.
type ScaleRow struct {
	Nodes, Tasks int
	MakespanSec  float64
	CostDollars  float64
	Utilization  float64
	WallMillis   float64
	TasksPerSec  float64 // simulated tasks completed per wall-clock second
}

// ScaleResult is the ladder sweep.
type ScaleResult struct {
	Rows []ScaleRow
}

// Scale sweeps simulator throughput up the cluster-size ladder (the
// PR's 10k-node acceptance scenario): random clusters with 100 tasks
// per node, the batch Scale scheduler, tracing off. Generation happens
// outside the timed region; WallMillis covers sim construction plus the
// event loop.
func Scale(cfg Config) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	sizes := []int{100, 1000, 10_000}
	if cfg.Quick {
		sizes = []int{50, 200}
	}
	res := &ScaleResult{}
	scale := runner{"scale", func() sim.Scheduler { return sched.NewScale() }, sim.Options{}}
	for _, nodes := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed))
		c := cluster.Random(rng, cluster.RandomSpec{Nodes: nodes})
		w := workload.Random(rng, c.StoreIDs(), workload.RandomSpec{TotalTasks: 100 * nodes})
		p := w.Placement()
		p.Shuffle(rng, c.StoreIDs())

		t0 := time.Now()
		r, _, err := cfg.run(scale, fmt.Sprintf("scale-%d", nodes), c, w, p, scale.opts)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)

		res.Rows = append(res.Rows, ScaleRow{
			Nodes: nodes, Tasks: w.TotalTasks(),
			MakespanSec: r.Makespan,
			CostDollars: r.TotalCost().ToDollars(),
			Utilization: r.Utilization,
			WallMillis:  float64(wall.Microseconds()) / 1000,
			TasksPerSec: float64(w.TotalTasks()) / wall.Seconds(),
		})
	}
	return res, nil
}

// Render formats the ladder.
func (r *ScaleResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Nodes), fmt.Sprintf("%d", row.Tasks),
			fmt.Sprintf("%.0f s", row.MakespanSec),
			fmt.Sprintf("$%.2f", row.CostDollars),
			pct(row.Utilization),
			fmt.Sprintf("%.1f ms", row.WallMillis),
			fmt.Sprintf("%.0f", row.TasksPerSec),
		})
	}
	return renderTable([]string{"nodes", "tasks", "makespan", "cost", "util", "wall", "tasks/s"}, rows)
}
