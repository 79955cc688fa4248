package main

import (
	"fmt"
	"time"

	"lips/bench/stat"
	"lips/internal/cluster"
	"lips/internal/hdfs"
	"lips/internal/metrics"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/workload"
)

// maxDrainEpochs bounds how long a round waits for its last job, so a
// scheduler that stops making progress fails the run instead of hanging
// it. The longest healthy drain (paper100-swim's 24-hour day at 600 s an
// epoch) is 150 epochs.
const maxDrainEpochs = 5000

// arrival is one job handed to a running simulation, with its input.
type arrival struct {
	job workload.Job
	obj hdfs.DataObject
}

// simSpec is how one simulation of a round is built and fed. The driver
// owns the clock the way serve.Daemon.epoch does: per epoch it admits
// that epoch's arrivals with AddJob, then advances stepSec with
// StepUntil. A batch workload has no arrivals; its jobs are in the
// workload sim.New receives.
type simSpec struct {
	sched    func() sim.Scheduler
	opts     sim.Options
	stepSec  float64
	arrivals [][]arrival
	// fault, when set, may inject one node fault at the start of an epoch.
	fault func(epoch int) (sim.Fault, bool)
}

// lipsMark is a snapshot of LiPS's exported counters; the timed region's
// share is the difference of two.
type lipsMark struct {
	epochs, iters, tasksMoved, blocksMoved int
	solve                                  time.Duration
	solver                                 metrics.SolverStats
}

func markLiPS(l *sched.LiPS) lipsMark {
	return lipsMark{epochs: l.Epochs, iters: l.LPIters, tasksMoved: l.TasksMoved,
		blocksMoved: l.BlocksMoved, solve: l.SolveTime, solver: l.Solver}
}

// simResult is what one driven simulation leaves behind for the checks.
type simResult struct {
	s    *sim.Sim
	lips *sched.LiPS // nil under another scheduler
	out  simOut
}

// drive runs one simulation to drain and adds its set-up, timed region,
// counts and checks to the round. Epoch 0 belongs to set-up: it carries
// the cold LP (or, in a batch, the arrival of every job at once), which a
// long-running system pays once.
func (r *round) drive(c *cluster.Cluster, w *workload.Workload, p *hdfs.Placement, spec simSpec, tr *tracer) (*simResult, error) {
	t0 := time.Now()
	sc := spec.sched()
	lips, _ := sc.(*sched.LiPS)
	var dec *timedSched
	if tr != nil {
		sc, dec = decorate(sc)
	}
	sp := tr.begin("sim.New", 0)
	s := sim.New(c, w, p, sc, spec.opts)
	tr.end(sp)
	sp = tr.begin("sim.Start", 0)
	err := s.Start()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	r.setup[setupConstruct] += time.Since(t0)

	var stepWall time.Duration
	step := func(e int) (time.Duration, error) {
		t0 := time.Now()
		ep := tr.begin("epoch", e)
		if spec.fault != nil {
			if f, ok := spec.fault(e); ok {
				f.At = s.Now()
				if err := s.InjectFault(f); err != nil {
					return 0, fmt.Errorf("epoch %d: inject fault: %w", e, err)
				}
			}
		}
		if e < len(spec.arrivals) {
			for i := range spec.arrivals[e] {
				a := &spec.arrivals[e][i]
				a.job.ArrivalSec = s.Now()
				obj := a.obj // AddJob assigns the copy's ID
				sp := tr.begin("sim.AddJob", e)
				_, err := s.AddJob(a.job, &obj)
				tr.end(sp)
				if err != nil {
					return 0, fmt.Errorf("epoch %d: add job: %w", e, err)
				}
			}
		}
		t1 := time.Now()
		sp := tr.begin("sim.StepUntil", e)
		err := s.StepUntil(s.Now() + spec.stepSec)
		tr.end(sp)
		stepWall += time.Since(t1)
		tr.end(ep)
		if err != nil {
			return 0, fmt.Errorf("epoch %d: step: %w", e, err)
		}
		return time.Since(t0), nil
	}

	first, err := step(0)
	if err != nil {
		return nil, err
	}
	r.setup[setupFirstEpoch] += first

	var mark lipsMark
	if lips != nil {
		mark = markLiPS(lips)
	}
	lastLiPSEpoch := mark.epochs
	stepWall = 0
	timed := beginTimed()
	epochs := 1
	for ; epochs < len(spec.arrivals) || !s.Drained(); epochs++ {
		if epochs > len(spec.arrivals)+maxDrainEpochs {
			return nil, fmt.Errorf("not drained %d epochs after the last arrival", maxDrainEpochs)
		}
		d, err := step(epochs)
		if err != nil {
			return nil, err
		}
		r.epochMS = append(r.epochMS, ms(d))
		if lips != nil {
			if st, ok := lips.LastEpochStats(); ok && st.Epoch != lastLiPSEpoch {
				lastLiPSEpoch = st.Epoch
				r.samples["lp_jobs"] = append(r.samples["lp_jobs"], float64(st.Jobs))
				r.layer["sched.deferred_tasks_total"] += float64(st.Deferred)
			}
		}
	}
	timed.end(r)
	if n := len(spec.arrivals) - 1; n >= 8 {
		// Over the admission epochs, the last quartile's wall over the
		// first's: above 1 means an epoch costs more the more the process
		// has already served.
		admit := r.epochMS[len(r.epochMS)-(epochs-1):][:n]
		if first := stat.Median(admit[:n/4]); first > 0 {
			r.layer["sim.epoch_wall_growth"] = stat.Median(admit[n-n/4:]) / first
		}
	}

	res := &simResult{s: s, lips: lips}
	r.keep = append(r.keep, s)
	r.collect(res, epochs)
	l := r.layer
	if lips != nil {
		d := markLiPS(lips)
		solve := d.solve - mark.solve
		l["sched.epochs"] += float64(d.epochs - mark.epochs)
		l["sched.solve_ms_total"] += ms(solve)
		l["sched.nonsolve_ms_total"] += ms(stepWall - solve)
		l["sched.lp_iters"] += float64(d.iters - mark.iters)
		l["sched.warm_attempted"] += float64(d.solver.WarmAttempted - mark.solver.WarmAttempted)
		l["sched.warm_accepted"] += float64(d.solver.WarmAccepted - mark.solver.WarmAccepted)
		l["sched.tasks_moved"] += float64(d.tasksMoved - mark.tasksMoved)
		l["sched.blocks_moved"] += float64(d.blocksMoved - mark.blocksMoved)
		stepWall -= solve
	}
	if dec != nil {
		cb := dec.callbackTime()
		l["sim.sched_callback_ms"] += ms(cb)
		l["sim.self_ms"] += ms(stepWall - cb)
	}
	return res, nil
}

// collect reads the finished simulation: what it produced, and whether
// the books and the job table are in the state a correct run leaves.
func (r *round) collect(res *simResult, epochs int) {
	s := res.s
	jobs := s.NumJobs()
	r.jobs += jobs
	r.attempted += jobs + epochs
	e2e := make([]float64, 0, jobs)
	for j := 0; j < jobs; j++ {
		r.tasks += s.W.Jobs[j].NumTasks
		done := s.JobDoneAt(j)
		if s.JobRemaining(j) > 0 || s.JobCancelled(j) {
			r.failf("job %d not completed", j)
			continue
		}
		if done > res.out.makespan {
			res.out.makespan = done
		}
		e2e = append(e2e, done-s.W.Jobs[j].ArrivalSec)
	}
	res.out.e2eP50, _ = stat.Percentile(e2e, 0.50)
	res.out.e2eP95, _ = stat.Percentile(e2e, 0.95)
	res.out.costUC = int64(s.Ledger.Total())

	if err := s.Ledger.Reconcile(); err != nil {
		r.failf("ledger: %v", err)
	}
	var tenants int64
	for _, tn := range s.Ledger.Tenants() {
		tenants += int64(s.Ledger.TenantTotal(tn))
	}
	if tenants != res.out.costUC {
		r.failf("tenant lines sum to %d uc, ledger total is %d uc", tenants, res.out.costUC)
	}
	if res.lips != nil && res.lips.Err != nil {
		r.failf("LiPS: %v", res.lips.Err)
	}
}
