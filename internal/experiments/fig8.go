package experiments

import (
	"fmt"

	"lips/internal/cost"
)

// Fig8Row is one epoch length in the Fig. 8 trade-off sweep: total job
// execution time (a) and total cost (b) of LiPS on the Fig. 6(iii)
// testbed as the epoch grows.
type Fig8Row struct {
	EpochSec    float64
	Cost        cost.Money
	Makespan    float64
	SumJobSec   float64
	BlocksMoved int
	Epochs      int
}

// Fig8Result is the epoch-length sweep.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 sweeps the scheduling epoch on the 50% c1.medium 20-node testbed:
// longer epochs let LiPS chase cheap nodes harder (cost falls) while jobs
// queue longer (execution time rises).
func Fig8(cfg Config) (*Fig8Result, error) {
	cfg = cfg.withDefaults()
	epochs := []float64{200, 400, 600, 800, 1000, 1200, 1600}
	if cfg.Quick {
		epochs = []float64{200, 600, 1000}
	}
	res := &Fig8Result{}
	for _, e := range epochs {
		c, w, p := testbed(cfg, 0.5)
		lr := lips(e)
		r, l, err := cfg.run(lr, fmt.Sprintf("fig8 e=%g", e), c, w, p, lr.opts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig8Row{
			EpochSec: e, Cost: r.TotalCost(), Makespan: r.Makespan,
			SumJobSec: r.SumJobSec, BlocksMoved: l.BlocksMoved, Epochs: l.Epochs,
		})
	}
	return res, nil
}

// Render formats the sweep.
func (r *Fig8Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0fs", row.EpochSec),
			row.Cost.String(),
			fmt.Sprintf("%.0fs", row.Makespan),
			fmt.Sprintf("%.0fs", row.SumJobSec),
			fmt.Sprintf("%d", row.Epochs),
		})
	}
	return renderTable([]string{"epoch", "cost", "makespan", "Σ job time", "epochs run"}, rows)
}
