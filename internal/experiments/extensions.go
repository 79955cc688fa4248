package experiments

import (
	"fmt"

	"lips/internal/cost"
	"lips/internal/sched"
	"lips/internal/sim"
)

// AblationContentionRow compares dedicated-rate links against shared
// (processor-sharing) links for one scheduler on the Fig. 6(iii) setting.
// Contention costs time, not dollars — except through longer transfer
// stalls under occupancy-sensitive behaviours (timeouts, speculation).
type AblationContentionRow struct {
	Scheduler         string
	DedicatedMakespan float64
	SharedMakespan    float64
	DedicatedCost     cost.Money
	SharedCost        cost.Money
}

// AblationContentionResult is the link-model comparison.
type AblationContentionResult struct {
	Rows []AblationContentionRow
}

// AblationContention reruns the Fig. 6(iii) experiment under both network
// models.
func AblationContention(cfg Config) (*AblationContentionResult, error) {
	cfg = cfg.withDefaults()
	res := &AblationContentionResult{}
	for _, m := range []runner{fifo(), delay(), lips(Fig6Epoch)} {
		row := AblationContentionRow{Scheduler: m.label}
		for _, shared := range []bool{false, true} {
			c, w, p := testbed(cfg, 0.5)
			opts := m.opts
			opts.SharedLinks = shared
			label := fmt.Sprintf("contention %s shared=%v", m.label, shared)
			r, _, err := cfg.run(m, label, c, w, p, opts)
			if err != nil {
				return nil, err
			}
			if shared {
				row.SharedMakespan, row.SharedCost = r.Makespan, r.TotalCost()
			} else {
				row.DedicatedMakespan, row.DedicatedCost = r.Makespan, r.TotalCost()
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the contention ablation.
func (r *AblationContentionResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scheduler,
			fmt.Sprintf("%.0fs / %v", row.DedicatedMakespan, row.DedicatedCost),
			fmt.Sprintf("%.0fs / %v", row.SharedMakespan, row.SharedCost),
			fmt.Sprintf("%+.1f%%", 100*(row.SharedMakespan/row.DedicatedMakespan-1)),
		})
	}
	return renderTable([]string{"scheduler", "dedicated links", "shared links", "makespan change"}, rows)
}

// SpotMarketRow is one scheduler's bill under a volatile spot market.
type SpotMarketRow struct {
	Scheduler  string
	StaticCost cost.Money // flat prices (multiplier 1)
	SpotCost   cost.Money // volatile prices
}

// SpotMarketResult compares schedulers under spot-price volatility.
type SpotMarketResult struct {
	Rows   []SpotMarketRow
	Period float64
}

// SpotSchedule returns the experiment's price schedule: c1.medium's spot
// price jumps 6× during alternating windows of the given period (think
// spot-market contention for the popular cheap type), while m1.medium
// stays flat. During a spike c1.medium (≈1.1 mc ×6 = 6.6 mc/ECU·s)
// becomes MORE expensive than m1.medium (≈5.4 mc), so the optimal
// placement inverts — exactly what a price-oblivious plan misses.
func SpotSchedule(period float64) func(string, float64) float64 {
	return func(instanceType string, t float64) float64 {
		if instanceType == "c1.medium" && int(t/period)%2 == 1 {
			return 6
		}
		return 1
	}
}

// SpotMarket runs the Fig. 6(iii) batch under flat and volatile pricing
// for the oblivious default scheduler and the epoch-repricing LiPS.
func SpotMarket(cfg Config) (*SpotMarketResult, error) {
	cfg = cfg.withDefaults()
	const period = 800.0
	schedule := SpotSchedule(period)
	res := &SpotMarketResult{Period: period}
	// Both LiPS variants plan every 400 s, inside the price period; the
	// oblivious one plans with static prices even when billed at spot
	// rates, which isolates the value of per-epoch repricing.
	oblivious, repricing := lips(400), lips(400)
	oblivious.label, repricing.label = "lips-oblivious", "lips-repricing"
	for _, m := range []runner{fifo(), oblivious, repricing} {
		row := SpotMarketRow{Scheduler: m.label}
		for _, spot := range []bool{false, true} {
			c, w, p := testbed(cfg, 0.5)
			// Stagger arrivals across several price windows so planning
			// decisions land both inside and outside spikes.
			for i := range w.Jobs {
				w.Jobs[i].ArrivalSec = float64(i) * period / 2
			}
			run, opts := m, m.opts
			if spot {
				opts.PriceMultiplier = schedule
				if m.label == repricing.label {
					run.make = func() sim.Scheduler {
						l := m.make().(*sched.LiPS)
						l.PriceMultiplier = schedule
						return l
					}
				}
			}
			r, _, err := cfg.run(run, fmt.Sprintf("spot %s spot=%v", m.label, spot), c, w, p, opts)
			if err != nil {
				return nil, err
			}
			if spot {
				row.SpotCost = r.TotalCost()
			} else {
				row.StaticCost = r.TotalCost()
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the spot-market study.
func (r *SpotMarketResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scheduler, row.StaticCost.String(), row.SpotCost.String(),
			fmt.Sprintf("%+.1f%%", 100*(float64(row.SpotCost)/float64(row.StaticCost)-1)),
		})
	}
	return renderTable([]string{"scheduler", "flat prices", "spot prices", "bill change"}, rows)
}
