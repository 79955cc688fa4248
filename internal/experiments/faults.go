package experiments

import (
	"fmt"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/sim"
)

// AblationFaultsRow compares one scheduler's calm run against the same
// run under an injected churn scenario.
type AblationFaultsRow struct {
	Scheduler string

	CalmCost      cost.Money
	ChurnCost     cost.Money
	FailureCost   cost.Money // the churn run's fault-category charges
	CalmMakespan  float64
	ChurnMakespan float64

	Reexecuted       int // attempts killed and re-run
	BlocksReplicated int
}

// AblationFaultsResult is the churn ablation: LiPS versus delay
// scheduling under the same seeded fault plan.
type AblationFaultsResult struct {
	Rows []AblationFaultsRow
	Plan string // one-line description of the injected plan
}

// AblationFaults runs the Fig. 6 workload twice per scheduler — once
// calm, once under a seeded fault plan with node crashes (each paired
// with a recovery), a store data loss and a straggler window — and
// reports what churn costs each scheduler. The plan is deterministic in
// Config.FaultSeed, so rows reproduce bit-identically.
func AblationFaults(cfg Config) (*AblationFaultsResult, error) {
	cfg = cfg.withDefaults()
	spec := sim.FaultSpec{
		Crashes:     cfg.FaultCrashes,
		StoreLosses: 1,
		Slowdowns:   1,
		// Inject early — well inside both schedulers' busy phase — so the
		// faults hit work in flight rather than an idle tail.
		WindowSec:   Fig6Epoch / 4,
		DowntimeSec: Fig6Epoch / 4,
	}
	plan := sim.RandomFaultPlan(cfg.FaultSeed, cluster.Paper20(0.5), spec)

	res := &AblationFaultsResult{
		Plan: fmt.Sprintf("%d crashes (+%.0fs recovery), %d store loss, %d slowdown in [0,%.0fs), seed %d",
			spec.Crashes, spec.DowntimeSec, spec.StoreLosses, spec.Slowdowns, spec.WindowSec, cfg.FaultSeed),
	}
	for _, m := range []runner{delay(), lips(Fig6Epoch)} {
		row := AblationFaultsRow{Scheduler: m.label}
		for _, churn := range []bool{false, true} {
			c, w, p := testbed(cfg, 0.5)
			opts := m.opts
			if churn {
				opts.Faults = plan
			}
			label := fmt.Sprintf("faults %s churn=%v", m.label, churn)
			r, _, err := cfg.run(m, label, c, w, p, opts)
			if err != nil {
				return nil, err
			}
			if churn {
				row.ChurnCost = r.TotalCost()
				row.ChurnMakespan = r.Makespan
				row.FailureCost = r.Cost.Category(cost.CatFault)
				row.Reexecuted = r.Faults.TasksReexecuted
				row.BlocksReplicated = r.Faults.BlocksReplicated
			} else {
				row.CalmCost = r.TotalCost()
				row.CalmMakespan = r.Makespan
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the churn ablation.
func (r *AblationFaultsResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scheduler,
			row.CalmCost.String(), row.ChurnCost.String(), row.FailureCost.String(),
			fmt.Sprintf("%.0f", row.CalmMakespan), fmt.Sprintf("%.0f", row.ChurnMakespan),
			fmt.Sprintf("%d", row.Reexecuted), fmt.Sprintf("%d", row.BlocksReplicated),
		})
	}
	return fmt.Sprintf("fault plan: %s\n", r.Plan) + renderTable(
		[]string{"scheduler", "calm cost", "churn cost", "failure cost", "calm makespan", "churn makespan", "re-executed", "re-replicated"},
		rows)
}
