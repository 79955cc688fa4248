package main

import (
	"fmt"
	"time"

	"lips/bench/stat"
	"lips/internal/cluster"
	"lips/internal/core"
	"lips/internal/hdfs"
	"lips/internal/lp"
	"lips/internal/workload"
)

// replayInput is what a round hands to the kernel replay: its cluster,
// its own jobs in arrival order, and the epoch length its scheduler
// plans for.
type replayInput struct {
	c       *cluster.Cluster
	jobs    []arrival
	horizon float64
	colgen  bool
}

// Each kernel is repeated until it has replayReps samples or has used
// replayBudget, whichever comes first, and at least replayMin times: a
// cold column-generation solve on 10k nodes takes over a second.
const (
	replayReps   = 20
	replayMin    = 3
	replayBudget = 1500 * time.Millisecond
)

// timeKernel returns the median wall (ms) of fn over its repetitions.
// prep, when non-nil, rebuilds fn's input outside the timing: several
// kernels consume or mutate what they are given.
func timeKernel(prep func() error, fn func() error) (float64, error) {
	var walls []float64
	var spent time.Duration
	for len(walls) < replayReps && (spent < replayBudget || len(walls) < replayMin) {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		spent += d
		walls = append(walls, ms(d))
	}
	return stat.Median(walls), nil
}

// instanceOf builds the core.Instance LiPS would build at the start of an
// epoch in which jobs have just arrived: every task pending, every input
// wholly on its origin store.
func (in replayInput) instanceOf(jobs []arrival) (*core.Instance, error) {
	wj := make([]workload.Job, len(jobs))
	objs := make([]hdfs.DataObject, len(jobs))
	for i, a := range jobs {
		objs[i] = a.obj
		objs[i].ID = hdfs.ObjectID(i)
		wj[i] = a.job
		wj[i].ID, wj[i].Object = i, objs[i].ID
		wj[i].InputMB, wj[i].NumTasks = objs[i].SizeMB, objs[i].NumBlocks()
	}
	return core.NewInstance(in.c, wj, objs, hdfs.NewPlacement(objs), core.InstanceOptions{Aggregate: true, Horizon: in.horizon})
}

// replay times each public call of the core and lp layers on one epoch's
// worth (n) of the round's own jobs, and checks the LP bound: the
// fractional optimum may not cost more than the plan rounded from it,
// beyond what rounding can move.
func replay(in replayInput, n int, layer map[string]float64) error {
	if n > len(in.jobs) {
		n = len(in.jobs)
	}
	if n == 0 {
		return nil
	}
	jobs := in.jobs[:n]
	// The same jobs one epoch later: a tenth of each job's blocks done.
	shrunk := make([]arrival, n)
	for i, a := range jobs {
		blocks := a.obj.NumBlocks()
		a.obj.SizeMB = float64(blocks-max(1, blocks/10)) * 64
		if a.obj.SizeMB <= 0 {
			a.obj.SizeMB = 64
		}
		shrunk[i] = a
	}

	var inst *core.Instance
	var err error
	build := func() error { inst, err = in.instanceOf(jobs); return err }
	if layer["core.instance_ms"], err = timeKernel(nil, build); err != nil {
		return fmt.Errorf("replay: instance: %w", err)
	}
	layer["core.units"] = float64(len(inst.Machines))
	if in.colgen {
		// This scheduler never builds the full model: with ~180 units it
		// would have a column per (job, machine, store).
		return replayColGen(build, &inst, layer)
	}

	var model *core.Model
	if layer["core.model_ms"], err = timeKernel(build, func() error {
		model, err = core.BuildOnlineModel(inst)
		return err
	}); err != nil {
		return fmt.Errorf("replay: model: %w", err)
	}
	prob := model.Problem()
	layer["lp.rows"], layer["lp.cols"], layer["lp.nnz"] = float64(prob.NumCons()), float64(prob.NumVars()), float64(prob.NumNonzeros())

	// Cold as the live path solves it: LiPS offers a basis every epoch
	// after the first, which switches presolve off, and a rejected basis
	// falls back to a cold two-phase solve of the unreduced problem.
	var plan *core.Plan
	var solveWall time.Duration // of the solve plan came from
	if layer["lp.solve_cold_ms"], err = timeKernel(nil, func() error {
		t0 := time.Now()
		plan, err = model.Solve(lp.Options{Presolve: lp.PresolveOff})
		solveWall = time.Since(t0)
		return err
	}); err != nil {
		return fmt.Errorf("replay: cold solve: %w", err)
	}
	layer["lp.iters_cold"] = float64(plan.Iters)
	layer["lp.phase1_iters"] = float64(plan.Phase1)
	layer["lp.refactorizations"] = float64(plan.Refactorizations)
	// The solver's own per-pivot timers; they vanish if those timers go.
	if solveWall > 0 {
		layer["lp.pricing_share"] = plan.PricingTime.Seconds() / solveWall.Seconds()
		layer["lp.ftran_btran_share"] = (plan.FtranTime + plan.BtranTime).Seconds() / solveWall.Seconds()
	}
	// What presolve would remove, from the one solve that runs it (the
	// first epoch of a run).
	presolved, err := model.Solve(lp.Options{})
	if err != nil {
		return fmt.Errorf("replay: presolved solve: %w", err)
	}
	layer["lp.presolve_rows_removed"] = float64(presolved.PresolveRows)
	layer["lp.presolve_cols_removed"] = float64(presolved.PresolveCols)

	// Warm: the next epoch's model, seeded with this epoch's basis.
	nextInst, err := in.instanceOf(shrunk)
	if err != nil {
		return fmt.Errorf("replay: next instance: %w", err)
	}
	next, err := core.BuildOnlineModel(nextInst)
	if err != nil {
		return fmt.Errorf("replay: next model: %w", err)
	}
	var warm *core.Plan
	if layer["lp.solve_warm_ms"], err = timeKernel(nil, func() error {
		warm, err = next.Solve(lp.Options{WarmStart: plan.Basis})
		return err
	}); err != nil {
		return fmt.Errorf("replay: warm solve: %w", err)
	}
	layer["lp.iters_warm"] = float64(warm.Iters)

	var ip *core.IntegralPlan
	if layer["core.round_ms"], err = timeKernel(nil, func() error { ip = plan.Round(); return nil }); err != nil {
		return err
	}
	return checkBound("full LP", plan, ip, layer)
}

// replayColGen is the replay for a scheduler that solves by column
// generation: cold, then seeded the way LiPS seeds the next epoch's
// master, with last epoch's hot machines (the fake node left out; the
// master always has it). build refreshes *inst, which each solve mutates.
func replayColGen(build func() error, inst **core.Instance, layer map[string]float64) error {
	var plan *core.Plan
	var st lp.ColGenStats
	var err error
	if layer["core.colgen_cold_ms"], err = timeKernel(build, func() error {
		plan, st, err = core.SolveOnlineColGen(*inst, core.ColGenOptions{})
		return err
	}); err != nil {
		return fmt.Errorf("replay: cold colgen: %w", err)
	}
	layer["core.colgen_rounds"], layer["core.colgen_columns"] = float64(st.Rounds), float64(st.Columns)
	layer["lp.iters_cold"] = float64(st.Iters)
	var hot []int
	for _, l := range plan.HotMachines() {
		if !(*inst).Machines[l].Fake {
			hot = append(hot, l)
		}
	}
	if layer["core.colgen_seeded_ms"], err = timeKernel(build, func() error {
		_, st, err = core.SolveOnlineColGen(*inst, core.ColGenOptions{SeedMachines: hot})
		return err
	}); err != nil {
		return fmt.Errorf("replay: seeded colgen: %w", err)
	}
	layer["lp.iters_warm"] = float64(st.Iters)
	var ip *core.IntegralPlan
	if layer["core.round_ms"], err = timeKernel(nil, func() error { ip = plan.Round(); return nil }); err != nil {
		return err
	}
	return checkBound("colgen", plan, ip, layer)
}

// checkBound holds the rounded plan against the LP it came from. The LP
// optimum bounds every feasible integral plan from below, but largest-
// remainder rounding moves up to one task per (job, machine, store)
// bucket and may overfill a machine, so the rounded plan can undercut it
// by at most the dearest task of each bucket. Anything beyond that slack
// is a wrong objective or a wrong rounding.
func checkBound(what string, plan *core.Plan, ip *core.IntegralPlan, layer map[string]float64) error {
	lpMC, roundedMC := plan.TotalMC(), ip.CostMC()
	in := plan.In
	slack := 0.0
	for k, job := range in.Jobs {
		if job.NumTasks == 0 {
			continue
		}
		dearest := 0.0
		for lm := range plan.XT[k] {
			l, store := lm[0], lm[1]
			perTask := job.CPUSec / float64(job.NumTasks) * in.Machines[l].PerECUSecMC
			if store >= 0 && job.Data != core.NoData {
				perTask += in.Data[job.Data].SizeMB / float64(job.NumTasks) * in.MSPerMBMC[l][store]
			}
			dearest = max(dearest, perTask)
		}
		slack += dearest * float64(len(plan.XT[k]))
	}
	// Block moves round the same way; one block per (item, store) bucket.
	for i, d := range in.Data {
		if plan.XD == nil {
			break
		}
		dearest := 0.0
		for o := range d.Origin {
			for j := range plan.XD[i] {
				dearest = max(dearest, in.SSPerMBMC[o][j]*64)
			}
		}
		slack += dearest * float64(len(plan.XD[i]))
	}
	if layer != nil && lpMC > 0 {
		layer["core.lp_gap_pct"] = 100 * (roundedMC/lpMC - 1)
	}
	if roundedMC < lpMC-slack-1e-6*lpMC {
		return fmt.Errorf("replay: %s: rounded plan costs %.3f mc, below the LP's %.3f mc by more than rounding can move (%.3f mc)", what, roundedMC, lpMC, slack)
	}
	return nil
}
