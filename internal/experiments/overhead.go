package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"lips/internal/cluster"
	"lips/internal/core"
	"lips/internal/lp"
	"lips/internal/workload"
)

// OverheadRow measures the LiPS scheduling overhead (paper §VI-A: "for
// problems involving thousands of tasks, its execution time was almost
// negligible (10s of ms)"): LP build plus solve wall-clock per problem
// size.
type OverheadRow struct {
	Jobs, Nodes  int
	Tasks        int
	Vars, Cons   int
	BuildMillis  float64
	SolveMillis  float64
	SimplexIters int
}

// OverheadResult is the size sweep.
type OverheadResult struct {
	Rows []OverheadRow
}

// Overhead builds and solves online-model LPs of growing size on the
// paper's 100-node testbed and times them with the wall clock.
func Overhead(cfg Config) (*OverheadResult, error) {
	cfg = cfg.withDefaults()
	sizes := []int{5, 10, 20, 40}
	if cfg.Quick {
		sizes = []int{5, 15}
	}
	res := &OverheadResult{}
	c := cluster.Paper100()
	stores := c.StoreIDs()
	for _, jobs := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed))
		w := workload.SWIM(rng, stores, workload.SWIMSpec{Jobs: jobs, DurationSec: 1})
		p := w.Placement()
		p.Shuffle(rng, stores)

		t0 := time.Now()
		in, err := core.NewInstance(c, w.Jobs, w.Objects, p, core.InstanceOptions{
			Aggregate: true, Horizon: 600,
		})
		if err != nil {
			return nil, err
		}
		m, err := core.BuildOnlineModel(in)
		if err != nil {
			return nil, err
		}
		build := time.Since(t0)

		t1 := time.Now()
		plan, err := m.Solve(lp.Options{})
		if err != nil {
			return nil, fmt.Errorf("overhead %d jobs: %w", jobs, err)
		}
		solve := time.Since(t1)

		res.Rows = append(res.Rows, OverheadRow{
			Jobs: jobs, Nodes: len(c.Nodes), Tasks: w.TotalTasks(),
			Vars: m.NumVars(), Cons: m.NumCons(),
			BuildMillis:  float64(build.Microseconds()) / 1000,
			SolveMillis:  float64(solve.Microseconds()) / 1000,
			SimplexIters: plan.Iters,
		})
	}
	return res, nil
}

// Render formats the sweep.
func (r *OverheadResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Jobs), fmt.Sprintf("%d", row.Tasks),
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%d/%d", row.Vars, row.Cons),
			fmt.Sprintf("%.2f ms", row.BuildMillis),
			fmt.Sprintf("%.2f ms", row.SolveMillis),
			fmt.Sprintf("%d", row.SimplexIters),
		})
	}
	return renderTable([]string{"jobs", "tasks", "nodes", "vars/cons", "build", "solve", "iters"}, rows)
}
