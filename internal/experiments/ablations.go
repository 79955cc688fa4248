package experiments

import (
	"fmt"
	"math/rand"

	"lips/internal/cluster"
	"lips/internal/core"
	"lips/internal/cost"
	"lips/internal/lp"
	"lips/internal/workload"
)

// AblationFakeNode demonstrates why the online model needs the fake node
// F (§V-B): with demand exceeding the epoch's capacity, the model without
// F is infeasible, while the model with F stays feasible and defers the
// overflow.
type AblationFakeNodeResult struct {
	DemandCPUSec       float64
	SupplyCPUSec       float64
	WithoutFakeStatus  string // expected: infeasible
	WithFakeStatus     string // expected: optimal
	DeferredFrac       float64
	DeferredTasksOfTen int
}

// AblationFakeNode builds an over-subscribed epoch and solves it with and
// without the overflow node.
func AblationFakeNode(cfg Config) (*AblationFakeNodeResult, error) {
	cfg = cfg.withDefaults()
	b := cluster.NewBuilder("za")
	b.AddNode("za", "only", 1, 2, cost.Millicents(1), 1e6)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	wb.AddInputJob("heavy", "u", arch, 10*64, 0, 0) // 640 ECU-sec demand
	w := wb.Build()
	in, err := core.NewInstance(c, w.Jobs, w.Objects, w.Placement(), core.InstanceOptions{Horizon: 320})
	if err != nil {
		return nil, err
	}
	res := &AblationFakeNodeResult{
		DemandCPUSec: in.TotalDemandCPUSec(),
		SupplyCPUSec: in.TotalSupplyCPUSec(),
	}

	// Without F: the plain co-scheduling model over the epoch horizon.
	noFake, err := core.BuildCoScheduleModel(in)
	if err != nil {
		return nil, err
	}
	if _, err := noFake.Solve(lp.Options{}); err != nil {
		res.WithoutFakeStatus = "infeasible"
	} else {
		res.WithoutFakeStatus = "feasible (unexpected)"
	}

	// With F: the online model.
	in2, err := core.NewInstance(c, w.Jobs, w.Objects, w.Placement(), core.InstanceOptions{Horizon: 320})
	if err != nil {
		return nil, err
	}
	withFake, err := core.BuildOnlineModel(in2)
	if err != nil {
		return nil, err
	}
	plan, err := withFake.Solve(lp.Options{})
	if err != nil {
		return nil, err
	}
	res.WithFakeStatus = "optimal"
	res.DeferredFrac = plan.DeferredFrac[0]
	res.DeferredTasksOfTen = plan.Round().Deferred[0]
	return res, nil
}

// Render formats the fake-node ablation.
func (r *AblationFakeNodeResult) Render() string {
	return renderTable(
		[]string{"variant", "status", "deferred"},
		[][]string{
			{"online LP without fake node", r.WithoutFakeStatus, "-"},
			{"online LP with fake node", r.WithFakeStatus,
				fmt.Sprintf("%.0f%% of job (%d/10 tasks)", 100*r.DeferredFrac, r.DeferredTasksOfTen)},
		},
	)
}

// AblationRoundingRow compares the fractional LP optimum against the
// rounded integral plan across task granularities (§IV: the fractional
// optimum bounds the integral one; the gap shrinks as tasks get finer).
type AblationRoundingRow struct {
	Tasks        int
	FractionalMC float64
	IntegralMC   float64
	GapPct       float64
}

// AblationRoundingResult is the granularity sweep.
type AblationRoundingResult struct {
	Rows []AblationRoundingRow
}

// AblationRounding solves one co-scheduling instance and rounds it at
// several task granularities.
func AblationRounding(cfg Config) (*AblationRoundingResult, error) {
	cfg = cfg.withDefaults()
	res := &AblationRoundingResult{}
	for _, tasks := range []int{2, 4, 8, 32, 128} {
		b := cluster.NewBuilder("za", "zb")
		b.AddNode("za", "exp", 2, 2, cost.Millicents(5), 1e6)
		b.AddNode("zb", "cheap", 2, 2, cost.Millicents(1), 1e6)
		c := b.Build()
		wb := workload.NewBuilder()
		arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
		wb.AddInputJob("j", "u", arch, float64(tasks)*64, 0, 0)
		w := wb.Build()
		// A horizon that forces a split between the two nodes.
		horizon := float64(tasks) * 64 / 2.5
		in, err := core.NewInstance(c, w.Jobs, w.Objects, w.Placement(), core.InstanceOptions{Horizon: horizon})
		if err != nil {
			return nil, err
		}
		m, err := core.BuildCoScheduleModel(in)
		if err != nil {
			return nil, err
		}
		plan, err := m.Solve(lp.Options{})
		if err != nil {
			return nil, fmt.Errorf("rounding ablation %d tasks: %w", tasks, err)
		}
		ip := plan.Round()
		frac, integral := plan.TotalMC(), ip.CostMC()
		res.Rows = append(res.Rows, AblationRoundingRow{
			Tasks: tasks, FractionalMC: frac, IntegralMC: integral,
			GapPct: 100 * (integral - frac) / frac,
		})
	}
	return res, nil
}

// Render formats the rounding ablation.
func (r *AblationRoundingResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Tasks),
			fmt.Sprintf("%.1f mc", row.FractionalMC),
			fmt.Sprintf("%.1f mc", row.IntegralMC),
			fmt.Sprintf("%+.2f%%", row.GapPct),
		})
	}
	return renderTable([]string{"tasks", "fractional optimum", "rounded integral", "gap"}, rows)
}

// AblationBillingRow compares CPU-seconds billing against wall-clock slot
// occupancy billing (what EC2 instance-hours actually measure) for each
// scheduler on the Fig. 6(iii) testbed.
type AblationBillingRow struct {
	Scheduler     string
	CPUSecCost    cost.Money
	OccupancyCost cost.Money
}

// AblationBillingResult is the billing-model comparison.
type AblationBillingResult struct {
	Rows []AblationBillingRow
}

// AblationBilling reruns the Fig. 6(iii) experiment under both billing
// models.
func AblationBilling(cfg Config) (*AblationBillingResult, error) {
	cfg = cfg.withDefaults()
	res := &AblationBillingResult{}
	for _, m := range []runner{fifo(), lips(Fig6Epoch)} {
		row := AblationBillingRow{Scheduler: m.label}
		for _, occupancy := range []bool{false, true} {
			c, w, p := testbed(cfg, 0.5)
			opts := m.opts
			opts.BillOccupancy = occupancy
			label := fmt.Sprintf("billing %s occupancy=%v", m.label, occupancy)
			r, _, err := cfg.run(m, label, c, w, p, opts)
			if err != nil {
				return nil, err
			}
			if occupancy {
				row.OccupancyCost = r.TotalCost()
			} else {
				row.CPUSecCost = r.TotalCost()
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the billing ablation.
func (r *AblationBillingResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scheduler, row.CPUSecCost.String(), row.OccupancyCost.String(),
		})
	}
	return renderTable([]string{"scheduler", "CPU-seconds billing", "occupancy billing"}, rows)
}

// AblationPricingRow compares simplex pricing rules on one co-scheduling
// LP (the default Devex vs Bland), the design choice called out in
// DESIGN.md.
type AblationPricingRow struct {
	Rule  string
	Iters int
}

// AblationPricingResult is the pricing comparison.
type AblationPricingResult struct {
	Rows      []AblationPricingRow
	Objective float64
}

// AblationPricing solves one mid-size LP under both pricing rules.
func AblationPricing(cfg Config) (*AblationPricingResult, error) {
	cfg = cfg.withDefaults()
	c := cluster.Paper100()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := workload.SWIM(rng, c.StoreIDs(), workload.SWIMSpec{Jobs: 20, DurationSec: 1})
	res := &AblationPricingResult{}
	for _, bland := range []bool{false, true} {
		in, err := core.NewInstance(c, w.Jobs, w.Objects, w.Placement(), core.InstanceOptions{
			Aggregate: true, Horizon: 600,
		})
		if err != nil {
			return nil, err
		}
		m, err := core.BuildOnlineModel(in)
		if err != nil {
			return nil, err
		}
		plan, err := m.Solve(lp.Options{Bland: bland})
		if err != nil {
			return nil, err
		}
		rule := "devex"
		if bland {
			rule = "bland"
		} else {
			res.Objective = plan.TotalMC()
		}
		res.Rows = append(res.Rows, AblationPricingRow{Rule: rule, Iters: plan.Iters})
	}
	return res, nil
}

// Render formats the pricing ablation.
func (r *AblationPricingResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Rule, fmt.Sprintf("%d", row.Iters)})
	}
	return renderTable([]string{"pricing rule", "simplex iterations"}, rows)
}

// AblationTransferConstraintResult compares the online model with and
// without constraint (21) on a bandwidth-starved topology: without it the
// LP happily schedules reads that cannot finish within the epoch.
type AblationTransferConstraintResult struct {
	WithRemoteFrac    float64 // fraction scheduled on the remote node with (21)
	WithoutRemoteFrac float64 // same without (21)
}

// AblationTransferConstraint builds the bandwidth-starved two-node
// instance and solves the online model (with (21)) and the plain
// co-scheduling model with an epoch horizon (without (21)).
func AblationTransferConstraint(cfg Config) (*AblationTransferConstraintResult, error) {
	cfg = cfg.withDefaults()
	build := func() (*core.Instance, error) {
		b := cluster.NewBuilder("za", "zb")
		b.AddNode("za", "costly", 2, 2, cost.Millicents(5), 1e6)
		// The cheap node's store is too small to relocate the input to,
		// so reads must cross the free-but-slow link at run time — only
		// the transfer-time constraint (21) can stop the LP from
		// over-committing to the cheap node.
		b.AddNode("zb", "cheap", 100, 2, cost.Millicents(1), 64)
		bw := cluster.DefaultBandwidths()
		bw.InterZoneMBps = 1
		b.SetBandwidths(bw)
		b.SetZonePairPerGB("za", "zb", 0)
		c := b.Build()
		wb := workload.NewBuilder()
		arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 0.64}
		wb.AddInputJob("big", "u", arch, 10*1024, 0, 0)
		w := wb.Build()
		return core.NewInstance(c, w.Jobs, w.Objects, w.Placement(), core.InstanceOptions{Horizon: 100})
	}
	remoteFrac := func(plan *core.Plan) float64 {
		f := 0.0
		for lm, v := range plan.XT[0] {
			if lm[0] == 1 {
				f += v
			}
		}
		return f
	}
	res := &AblationTransferConstraintResult{}

	in, err := build()
	if err != nil {
		return nil, err
	}
	online, err := core.BuildOnlineModel(in)
	if err != nil {
		return nil, err
	}
	planWith, err := online.Solve(lp.Options{})
	if err != nil {
		return nil, err
	}
	res.WithRemoteFrac = remoteFrac(planWith)

	in2, err := build()
	if err != nil {
		return nil, err
	}
	in2.AddFakeNode(core.FakeNodePriceMC)
	co, err := core.BuildCoScheduleModel(in2) // no constraint (21)
	if err != nil {
		return nil, err
	}
	planWithout, err := co.Solve(lp.Options{})
	if err != nil {
		return nil, err
	}
	res.WithoutRemoteFrac = remoteFrac(planWithout)
	return res, nil
}

// Render formats the transfer-constraint ablation.
func (r *AblationTransferConstraintResult) Render() string {
	return renderTable(
		[]string{"model", "fraction sent to bandwidth-starved cheap node"},
		[][]string{
			{"online with constraint (21)", fmt.Sprintf("%.1f%%", 100*r.WithRemoteFrac)},
			{"co-schedule without (21)", fmt.Sprintf("%.1f%%", 100*r.WithoutRemoteFrac)},
		},
	)
}
