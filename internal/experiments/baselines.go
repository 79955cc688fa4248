package experiments

import (
	"fmt"

	"lips/internal/cost"
)

// BaselineRow is one scheduler's outcome in the all-baselines shoot-out.
type BaselineRow struct {
	Scheduler string
	Cost      cost.Money
	Makespan  float64
	LocalPct  float64
	Fairness  float64 // Jain index over per-user CPU shares
	Util      float64
}

// BaselinesResult compares every scheduler in the repository on the
// Fig. 6(iii) setting: the paper's two baselines (Hadoop default, delay),
// the Facebook fair scheduler, a Quincy-like min-cost-flow scheduler
// (§II's graph-based alternative), and LiPS.
type BaselinesResult struct {
	Rows []BaselineRow
}

// Baselines runs the shoot-out.
func Baselines(cfg Config) (*BaselinesResult, error) {
	cfg = cfg.withDefaults()
	res := &BaselinesResult{}
	for _, m := range []runner{fifo(), delay(), fair(), quincy(), lips(Fig6Epoch)} {
		c, w, p := testbed(cfg, 0.5)
		r, _, err := cfg.run(m, "baselines "+m.label, c, w, p, m.opts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, BaselineRow{
			Scheduler: m.label, Cost: r.TotalCost(), Makespan: r.Makespan,
			LocalPct: 100 * r.Locality.LocalFraction(),
			Fairness: r.Fairness, Util: r.Utilization,
		})
	}
	return res, nil
}

// Render formats the shoot-out.
func (r *BaselinesResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scheduler, row.Cost.String(),
			fmt.Sprintf("%.0fs", row.Makespan),
			fmt.Sprintf("%.1f%%", row.LocalPct),
			fmt.Sprintf("%.3f", row.Fairness),
			fmt.Sprintf("%.1f%%", 100*row.Util),
		})
	}
	return renderTable([]string{"scheduler", "cost", "makespan", "node-local", "jain-fairness", "utilization"}, rows)
}
