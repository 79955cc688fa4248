package experiments

import (
	"fmt"
	"math/rand"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/metrics"
	"lips/internal/workload"
)

// CompareRow is one scheduler's run in the paper's three-way comparison
// of the Hadoop default, delay and LiPS schedulers: Figs. 6 and 9 report
// the total dollar cost, Figs. 7 and 10 the execution time.
type CompareRow struct {
	Setting   string // Fig. 6's cluster mix, "(i) 0% c1.medium", ...; empty in Fig. 9
	Scheduler string
	Cost      cost.Money
	Makespan  float64
	SumJobSec float64
	LocalPct  float64

	// ReductionVsDefault/Delay are filled for the LiPS rows.
	ReductionVsDefault float64
	ReductionVsDelay   float64
}

// CompareResult covers Figs. 6 & 7 (three rows per cluster setting) and
// Figs. 9 & 10 (one setting).
type CompareResult struct {
	Rows []CompareRow
	// Solver aggregates the LiPS rows' per-epoch LP statistics (iteration
	// counts, where the solve wall-clock went).
	Solver metrics.SolverStats
}

// Fig6Epoch is the LiPS epoch used for the Fig. 6/7 runs. The paper does
// not state Fig. 6's epoch; the whole Table IV batch arrives at once, and
// its own Fig. 8 shows longer epochs trading execution time for cost, so
// we use an epoch long enough for one LP to plan the full batch.
const Fig6Epoch = 1600

// Fig9Epoch is the LiPS epoch for the 100-node runs.
const Fig9Epoch = 600

// Fig6 runs the Table IV job set (1608 map tasks, 100 GB) on the three
// 20-node cluster mixes under the default, delay and LiPS schedulers,
// with actual dollar accounting. Quick mode scales the job set down 4×.
func Fig6(cfg Config) (*CompareResult, error) {
	cfg = cfg.withDefaults()
	res := &CompareResult{}
	for _, s := range []struct {
		name   string
		fracC1 float64
	}{
		{"(i) 0% c1.medium", 0},
		{"(ii) 25% c1.medium", 0.25},
		{"(iii) 50% c1.medium", 0.5},
	} {
		err := cfg.compare(res, "fig6", s.name, Fig6Epoch, func() (*cluster.Cluster, *workload.Workload, *hdfs.Placement) {
			return testbed(cfg, s.fracC1)
		})
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", s.name, err)
		}
	}
	return res, nil
}

// Fig9 replays a SWIM-like Facebook day (400 jobs over 24 hours; Quick:
// 120 jobs over 4 hours) on the 100-node, three-instance-type,
// three-zone testbed under the default, delay and LiPS schedulers, with
// blocks spread over all stores (the cluster was built heterogeneous
// from the start).
func Fig9(cfg Config) (*CompareResult, error) {
	cfg = cfg.withDefaults()
	spec := workload.DefaultSWIMSpec()
	if cfg.Quick {
		spec = workload.SWIMSpec{Jobs: 120, DurationSec: 4 * 3600}
	}
	res := &CompareResult{}
	err := cfg.compare(res, "fig9", "", Fig9Epoch, func() (*cluster.Cluster, *workload.Workload, *hdfs.Placement) {
		c := cluster.Paper100()
		w := workload.SWIM(rand.New(rand.NewSource(cfg.Seed)), c.StoreIDs(), spec)
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(cfg.Seed+1)), c.StoreIDs())
		return c, w, p
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// compare runs the default, delay and LiPS schedulers each on a fresh
// testbed from build, appends their rows to res and fills the LiPS
// row's reductions against the other two.
func (cfg Config) compare(res *CompareResult, fig, setting string, epochSec float64, build func() (*cluster.Cluster, *workload.Workload, *hdfs.Placement)) error {
	rows := make([]CompareRow, 0, 3)
	for _, r := range []runner{fifo(), delay(), lips(epochSec)} {
		c, w, p := build()
		out, l, err := cfg.run(r, fig+" "+r.label, c, w, p, r.opts)
		if err != nil {
			return err
		}
		if l != nil {
			res.Solver.Merge(l.Solver)
		}
		rows = append(rows, CompareRow{
			Setting: setting, Scheduler: r.label,
			Cost: out.TotalCost(), Makespan: out.Makespan, SumJobSec: out.SumJobSec,
			LocalPct: 100 * out.Locality.LocalFraction(),
		})
	}
	l := &rows[2]
	l.ReductionVsDefault = 1 - float64(l.Cost)/float64(rows[0].Cost)
	l.ReductionVsDelay = 1 - float64(l.Cost)/float64(rows[1].Cost)
	res.Rows = append(res.Rows, rows...)
	return nil
}

// Render formats the comparison as one table. Fig. 6's rows lead with
// their cluster setting; Fig. 9's show Σ job time in its place.
func (r *CompareResult) Render() string {
	bySetting := len(r.Rows) > 0 && r.Rows[0].Setting != ""
	columns := func(cells ...string) []string {
		if bySetting {
			return append(cells[:4:4], cells[5:]...)
		}
		return cells[1:]
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		red := ""
		if row.Scheduler == "lips" {
			red = fmt.Sprintf("%s vs default, %s vs delay",
				pct(row.ReductionVsDefault), pct(row.ReductionVsDelay))
		}
		rows = append(rows, columns(
			row.Setting, row.Scheduler, row.Cost.String(),
			fmt.Sprintf("%.0fs", row.Makespan),
			fmt.Sprintf("%.0fs", row.SumJobSec),
			fmt.Sprintf("%.1f%%", row.LocalPct),
			red,
		))
	}
	out := renderTable(columns("setting", "scheduler", "cost", "makespan", "Σ job time", "node-local", "lips cost reduction"), rows)
	if r.Solver.Solves > 0 {
		out += "lips solver: " + r.Solver.String() + "\n"
	}
	return out
}
