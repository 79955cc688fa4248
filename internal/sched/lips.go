package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"lips/internal/cluster"
	"lips/internal/core"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/lp"
	"lips/internal/metrics"
	"lips/internal/obs"
	"lips/internal/sim"
	"lips/internal/trace"
	"lips/internal/workload"
)

// LiPS is the paper's scheduler: every EpochSec seconds it gathers the
// queued jobs' remaining work, builds the online co-scheduling LP (Fig. 4)
// over the cluster's node groups, solves it, rounds the fractional optimum
// to whole tasks and blocks, issues the data moves, and pins the tasks to
// concrete nodes. Work the LP parks on the fake node stays queued for the
// next epoch.
//
// The LP is built over node groups rather than individual nodes
// (lossless for class-structured clusters; see DESIGN.md) and solved by
// column generation over a restricted master (core.NewOnlineColGen),
// seeded with the fake node, every unit that has carried work in the run
// and the paper's §IV greedy units: a unit's (job, store) columns are
// materialized only once the pricing oracle proves they can lower the
// objective. The loop ends at the full LP's optimum while holding a
// fraction of its columns; the first pricing round starts from the plan
// that parks every job on the fake node, each later one from the round
// before it, and no basis crosses epochs.
type LiPS struct {
	// Node crashes and recoveries need no hook: the next epoch's instance
	// asks the simulator which nodes are alive, and a dead node's tasks are
	// already back in Pending for the next tick.
	sim.NopNodeEvents

	// EpochSec is the scheduling epoch e. The zero value selects 400 s
	// (one of the two epoch lengths of Fig. 11).
	EpochSec float64
	// Deprecated: ColGen is ignored; every epoch solves the restricted
	// master. It remains only because bench/workloads.go still sets it.
	ColGen bool
	// PriceMultiplier, when non-nil, re-prices each epoch's LP with the
	// spot multiplier sampled at the epoch start — pass the same function
	// given to sim.Options so planning and billing agree. The simulator
	// bills each attempt at the multiplier sampled when the attempt
	// starts, so a task the planner priced in epoch k and launched within
	// it is billed at epoch-k prices even when it finishes after the
	// boundary; planner and biller diverge only by the sub-epoch drift
	// between the epoch start and the attempt's actual launch.
	PriceMultiplier func(instanceType string, t float64) float64
	// TraceTimings includes the wall-clock LP solve timings in the epoch
	// trace events. Off by default: wall-clock is machine-dependent, and
	// same-seed traces are byte-identical only without it.
	TraceTimings bool

	// Stats, readable after a run.
	Epochs      int
	SolveTime   time.Duration // wall-clock spent in the LP solver
	LPIters     int
	TasksMoved  int // tasks enqueued via LP plans
	BlocksMoved int
	Solver      metrics.SolverStats // per-solve LP statistics
	Err         error               // first scheduling error, if any

	stale   int  // consecutive epochs with pending work but no launches
	armed   bool // a future tick is in the heap (the chain dies when drained)
	rrNode  map[int]int
	rrStore map[int]int
	units   *core.Units // the cluster's units, built on the run's first epoch
	prevHot []string    // names of every unit that has carried work since Init (the master's seed hints)

	lastEpoch EpochRecord // most recent epoch (see LastEpochStats)

	// perNode builds the LP over individual nodes: the oracle tests hold
	// the default against. maxIters, when nonzero, is each simplex solve's
	// iteration budget, so tests can make epochs fail. checkPlan, when
	// set, sees every epoch's instance and optimal plan, so a test can
	// hold the master to a direct solve. Nothing else sets them.
	perNode   bool
	maxIters  int
	checkPlan func(*core.Instance, *core.Plan)

	name string            // Name, formatted by Init for the run's records
	om   *obs.SchedMetrics // live epoch metrics; nil when metrics are off
}

// NewLiPS returns a LiPS scheduler with the given epoch length (0 selects
// the 400 s default).
func NewLiPS(epochSec float64) *LiPS { return &LiPS{EpochSec: epochSec} }

// defaultEpochSec is the epoch a zero EpochSec selects.
const defaultEpochSec = 400

// Name implements sim.Scheduler. It names the epoch the run uses, the
// default included, from construction on: the simulator reads it for
// the run header before Init.
func (l *LiPS) Name() string {
	e := l.EpochSec
	if e == 0 {
		e = defaultEpochSec
	}
	return fmt.Sprintf("lips(e=%.0fs)", e)
}

// Init implements sim.Scheduler. It resets every piece of run-scoped
// state — stats, error, staleness counter, round-robin cursors, the
// cluster's units and the seed hints — so one *LiPS can be reused
// across sim.Run calls and each run behaves identically.
func (l *LiPS) Init(s *sim.Sim) {
	if l.EpochSec == 0 {
		l.EpochSec = defaultEpochSec
	}
	l.name = l.Name()
	l.Epochs = 0
	l.SolveTime = 0
	l.LPIters = 0
	l.TasksMoved = 0
	l.BlocksMoved = 0
	l.Solver = metrics.SolverStats{}
	l.lastEpoch = EpochRecord{}
	l.Err = nil
	l.stale = 0
	l.units = nil
	l.prevHot = nil
	l.rrNode = make(map[int]int)
	l.rrStore = make(map[int]int)
	l.om = nil
	if reg := s.Registry(); reg != nil {
		l.om = obs.RegisterSched(reg)
	}
	l.armed = true
	s.At(0, func() { l.tick(s) })
}

// OnJobArrival implements sim.Scheduler: LiPS waits for the next epoch
// ("non-greedy patience", paper §V-B). The tick chain dies once every job
// completes, so a job arriving into an idle run — routine in serve mode,
// impossible in a batch run — must revive it; the new tick lands on the
// epoch grid (the next multiple of EpochSec), preserving the patience the
// chain would have shown had it never drained.
func (l *LiPS) OnJobArrival(s *sim.Sim, _ int) {
	if l.armed {
		return
	}
	l.armed = true
	next := math.Ceil(s.Now()/l.EpochSec) * l.EpochSec
	s.At(next, func() { l.tick(s) })
}

// OnSlotFree implements sim.Scheduler: LiPS pre-assigns tasks to nodes, so
// free slots drain the node's pinned queue (handled by the simulator) and
// otherwise wait for the next epoch.
func (l *LiPS) OnSlotFree(*sim.Sim, cluster.NodeID) {}

// OnTaskDone implements sim.Scheduler.
func (l *LiPS) OnTaskDone(*sim.Sim, int, int) {}

// tick runs one scheduling epoch.
func (l *LiPS) tick(s *sim.Sim) {
	if s.Drained() {
		l.armed = false // OnJobArrival re-arms on the epoch grid
		return
	}
	defer s.At(s.Now()+l.EpochSec, func() { l.tick(s) })

	queued, pendingOf := l.queuedJobs(s)
	if len(queued) == 0 {
		return
	}
	l.Epochs++

	launched := l.planEpoch(s, queued, pendingOf)
	if launched == 0 {
		l.stale++
		if l.stale >= 3 {
			// Safety valve: rounding starvation (tiny fractions rounding
			// to zero tasks across consecutive epochs). Greedily place
			// the stragglers data-locally so the run always terminates.
			l.fallback(s, queued)
			l.stale = 0
		}
	} else {
		l.stale = 0
	}
}

// queuedJobs lists arrived jobs that still have Pending (unassigned)
// tasks, and those tasks: pendingOf[i] belongs to queued[i].
func (l *LiPS) queuedJobs(s *sim.Sim) (queued []int, pendingOf [][]int) {
	for _, j := range s.ArrivedJobs() {
		if pending := s.PendingTasks(j); len(pending) > 0 {
			queued = append(queued, j)
			pendingOf = append(pendingOf, pending)
		}
	}
	return queued, pendingOf
}

// planEpoch builds, solves and applies one epoch's LP over the queued jobs
// and their pending tasks, and reports it through record — a failed solve
// too. It returns the number of tasks enqueued.
func (l *LiPS) planEpoch(s *sim.Sim, queued []int, pendingOf [][]int) int {
	began := time.Now()
	r := EpochRecord{Epoch: l.Epochs, SimTime: s.Now(), Jobs: len(queued)}

	// Build a synthetic sub-workload of the remaining work: one job item
	// per queued job covering only its pending tasks, one data item per
	// input job covering only the pending blocks (with their current
	// placement as the origin mix).
	subJobs := make([]workload.Job, 0, len(queued))
	var subObjects []hdfs.DataObject
	subPlacement := make([]map[cluster.StoreID]float64, 0, len(queued))

	for qi, j := range queued {
		job := s.W.Jobs[j]
		pending := pendingOf[qi]
		r.Pending += len(pending)
		sub := job
		sub.ID = qi
		sub.NumTasks = len(pending)
		if job.HasInput() {
			obj := s.W.Objects[job.Object]
			mb := 0.0
			frac := make(map[cluster.StoreID]float64)
			for _, t := range pending {
				bmb := obj.BlockSizeMB(t)
				mb += bmb
				frac[s.P.Primary(obj.ID, t)] += bmb
			}
			for st := range frac {
				frac[st] /= mb
			}
			sub.Object = hdfs.ObjectID(len(subObjects))
			sub.InputMB = mb
			subObjects = append(subObjects, hdfs.DataObject{
				ID: sub.Object, Name: obj.Name, SizeMB: mb, Origin: s.P.Primary(obj.ID, pending[0]),
			})
			subPlacement = append(subPlacement, frac)
		}
		subJobs = append(subJobs, sub)
	}

	in, err := l.buildInstance(s, subJobs, subObjects, subPlacement)
	if err != nil {
		l.fail(err)
		return 0
	}
	// The units earlier plans used seed the new master, ahead of the §IV
	// greedy units, so the first pricing round already holds the likely
	// support. The master's build is on the build clock, its pricing
	// loop alone on the solve clock.
	opts := core.ColGenOptions{LP: lp.Options{MaxIters: l.maxIters}, SeedMachines: seedMachines(in, l.prevHot)}
	master, err := core.NewOnlineColGen(in, opts)
	if err != nil {
		l.fail(err)
		return 0
	}
	// apply is the instance's last reader: the master's storage and the
	// instance matrices go back to their pools after it.
	defer master.Release()
	solving := time.Now()
	plan, cg, err := master.Solve(opts)
	if cg.Rounds == 0 { // the master was refused before any solve
		l.fail(err)
		return 0
	}
	solved := time.Now()
	r.BuildTime, r.SolveTime = solving.Sub(began), solved.Sub(solving)
	// The solver's own sums over every round, kept when it gave up
	// mid-loop.
	r.Stats, r.LPSolves, r.LPWarmStarts = cg.Stats, cg.Rounds, cg.WarmRounds
	r.ColGenRounds, r.ColGenColumns, r.OracleTime = cg.Rounds, cg.Columns, cg.OracleTime
	var failed *core.SolveError
	switch {
	case err == nil:
		r.Rows, r.Cols, r.NNZ = plan.Rows, plan.Cols, plan.NNZ
	case errors.As(err, &failed):
		r.Status, r.Rows, r.Cols = failed.Status.String(), failed.Rows, failed.Cols
	default:
		r.Status = trace.StatusError
	}
	r.Stalled = r.stalled()
	if err != nil {
		r.Deferred = r.Pending
		l.fail(fmt.Errorf("epoch %d: %w", l.Epochs, err))
		l.record(s, r)
		return 0
	}
	if l.checkPlan != nil {
		l.checkPlan(in, plan)
	}
	l.prevHot = addHotNames(l.prevHot, in, plan)

	ip := plan.Round()
	rounded := time.Now()
	r.Launched, r.BlocksMoved = l.apply(s, in, ip, queued, pendingOf)
	applied := time.Now()

	r.Deferred = r.Pending - r.Launched
	r.RoundTime, r.ApplyTime = rounded.Sub(solved), applied.Sub(rounded)
	l.record(s, r)
	return r.Launched
}

// record is the one place an epoch is reported: it folds the record into
// the run totals and LiPS.Solver, keeps it for LastEpochStats, and hands
// its one projection to the live metrics (with wall-clock) and the trace
// (without, unless TraceTimings).
func (l *LiPS) record(s *sim.Sim, r EpochRecord) {
	l.SolveTime += r.SolveTime
	l.LPIters += r.Iters
	l.TasksMoved += r.Launched
	l.BlocksMoved += r.BlocksMoved
	l.Solver.Observe(r.Stats, r.LPSolves, r.SolveTime, r.ColGenRounds, r.ColGenColumns)
	l.lastEpoch = r
	if l.om != nil {
		l.om.ObserveEpoch(r.TraceInfo(l.name, true))
	}
	if tr := s.Tracer(); tr != nil {
		tr.Emit(trace.Event{T: r.SimTime, Kind: trace.KindEpoch, Epoch: r.TraceInfo(l.name, l.TraceTimings)})
	}
}

// buildInstance constructs the core.Instance for the sub-workload over the
// run's units, each sub-object placed by its fractions.
func (l *LiPS) buildInstance(s *sim.Sim, jobs []workload.Job, objects []hdfs.DataObject, placements []map[cluster.StoreID]float64) (*core.Instance, error) {
	if l.units == nil {
		l.units = core.NewUnits(s.C, !l.perNode)
	}
	in, err := l.units.Instance(jobs, objects, placements, l.EpochSec)
	if err != nil {
		return nil, err
	}
	// Crashed nodes offer no capacity this epoch; shrink (or drop) their
	// units. Stores keep their units — data outlives co-located compute.
	if s.NodesDown() > 0 {
		in.FilterMachines(s.NodeAlive)
	}
	if l.PriceMultiplier != nil {
		now := s.Now()
		for i := range in.Machines {
			if in.Machines[i].Fake {
				continue
			}
			in.Machines[i].PerECUSecMC *= l.PriceMultiplier(in.Machines[i].Type, now)
		}
	}
	return in, nil
}

// apply turns the rounded plan into concrete data moves and pinned tasks,
// and returns how many of each it issued. It walks the plan in Round's
// order: queued job qi is the instance's job qi, and the input jobs'
// sub-objects are its data items in queued order, so each job's run of
// assignments and each item's run of moves comes next in turn.
func (l *LiPS) apply(s *sim.Sim, in *core.Instance, ip *core.IntegralPlan, queued []int, pendingOf [][]int) (launched, blocksMoved int) {
	unitOf := func(st cluster.StoreID) int { u, _ := in.StoreUnit(st); return u }

	// Reconcile each input job's pending blocks with its item's moves:
	// blocks already on a wanted unit stay; surplus blocks move to
	// deficit units. Track per-task (store, readyAt).
	type taskLoc struct {
		store   cluster.StoreID
		unit    int
		readyAt float64
	}
	locs := make([][]taskLoc, len(queued)) // qi → position in pendingOf[qi] → location
	want := make([]int, len(in.Stores))    // per store unit: the blocks the item still owes it
	moves := ip.Moves
	for qi := range queued {
		job := s.W.Jobs[queued[qi]]
		if !job.HasInput() {
			continue
		}
		pending := pendingOf[qi]
		loc := make([]taskLoc, len(pending))
		locs[qi] = loc
		item := in.Jobs[qi].Data
		obj := s.W.Objects[job.Object]
		var run []core.DataMove // the item's moves, ascending by store
		run, moves = leading(moves, func(mv core.DataMove) bool { return mv.Data == item })
		clear(want)
		for _, mv := range run {
			want[mv.Store] += mv.Blocks
		}
		// Pass 1: keep blocks already where the plan wants them. Blocks
		// with a relocation still in flight (issued by an earlier epoch,
		// then orphaned by a crash or re-plan) are pinned to that move's
		// destination rather than raced with a second move.
		var homeless []int // positions in pending
		for p, t := range pending {
			if dst, doneAt, inFlight := s.BlockMove(int(obj.ID), t); inFlight {
				u := unitOf(dst)
				if want[u] > 0 {
					want[u]--
				}
				loc[p] = taskLoc{store: dst, unit: u, readyAt: doneAt}
				continue
			}
			st := s.P.Primary(obj.ID, t)
			unit := unitOf(st)
			if want[unit] > 0 {
				want[unit]--
				loc[p] = taskLoc{store: st, unit: unit, readyAt: s.Now()}
			} else {
				homeless = append(homeless, p)
			}
		}
		// Pass 2: move the rest to units still owed blocks, each block
		// to the cheapest deficit unit from where it currently sits
		// (mirroring the LP's transportation flows — typically a free
		// intra-zone hop).
		for _, p := range homeless {
			t := pending[p]
			st := s.P.Primary(obj.ID, t)
			best, bestCost := -1, cost.Money(0)
			for _, mv := range run {
				u := mv.Store
				if want[u] == 0 {
					continue
				}
				c := s.C.SSPerGB(st, in.Stores[u].Stores[0])
				if best == -1 || c < bestCost {
					best, bestCost = u, c
				}
			}
			if best == -1 {
				// Rounding mismatch: leave the block in place.
				loc[p] = taskLoc{store: st, unit: unitOf(st), readyAt: s.Now()}
				continue
			}
			want[best]--
			dst := l.pickStore(in, best)
			doneAt := s.MoveBlock(int(obj.ID), t, dst)
			blocksMoved++
			loc[p] = taskLoc{store: dst, unit: best, readyAt: doneAt}
		}
	}

	// Assign tasks per (job, machine unit, store unit) count, each job's
	// run ascending by (machine, store).
	buckets := newUnitBuckets(len(in.Stores))
	rest := ip.Assignments
	for qi := range queued {
		j := queued[qi]
		var assignments []core.TaskAssignment
		assignments, rest = leading(rest, func(a core.TaskAssignment) bool { return a.Job == qi })
		pending, loc := pendingOf[qi], locs[qi]
		unitAt := func(p int) int {
			if loc == nil {
				return 0 // no input: every position is in unit 0
			}
			return loc[p].unit
		}
		taken := make([]bool, len(pending)) // by position in pending
		buckets.fill(len(pending), unitAt)
		for _, a := range assignments {
			unit := a.Store
			if loc == nil {
				unit = 0
			}
			for n := 0; n < a.Tasks; n++ {
				p, ok := buckets.take(unit, taken)
				if !ok {
					// Rounding mismatch between moves and assignments:
					// take the unassigned task whose data is cheapest to
					// read from this machine unit.
					p, ok = cheapestTask(in, taken, a.Machine, unitAt)
					if !ok {
						break
					}
				}
				t := pending[p]
				node := l.pickNode(s, in, a.Machine)
				store, readyAt := sim.NoStore, s.Now()
				if loc != nil {
					store, readyAt = loc[p].store, loc[p].readyAt
				}
				if err := s.Enqueue(j, t, node, store, readyAt); err != nil {
					l.fail(err)
					continue
				}
				launched++
			}
		}
	}
	return launched, blocksMoved
}

// leading splits xs into its longest prefix whose elements satisfy in and
// the rest.
func leading[T any](xs []T, in func(T) bool) (prefix, rest []T) {
	n := 0
	for n < len(xs) && in(xs[n]) {
		n++
	}
	return xs[:n], xs[n:]
}

// addHotNames appends to names each non-fake machine unit carrying work in
// the plan that names lacks, by name — names are the stable identity
// across per-epoch instances, whose unit indices shift with churn. The
// list is bounded by the cluster's unit count.
func addHotNames(names []string, in *core.Instance, p *core.Plan) []string {
	for _, l := range p.HotMachines() {
		if n := in.Machines[l].Name; !in.Machines[l].Fake && !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	return names
}

// seedMachines resolves hot-machine names against this epoch's instance;
// units that left the cluster simply drop out.
func seedMachines(in *core.Instance, names []string) []int {
	if len(names) == 0 {
		return nil
	}
	idx := make(map[string]int, len(in.Machines))
	for l, m := range in.Machines {
		if !m.Fake {
			idx[m.Name] = l
		}
	}
	var out []int
	for _, n := range names {
		if l, ok := idx[n]; ok {
			out = append(out, l)
		}
	}
	return out
}

// unitBuckets hands out one queued job's pending positions by data unit:
// the positions grouped by unit (a counting sort, so each group stays
// ascending), and per unit the next one to try. An assignment takes its
// unit's lowest untaken position — what a scan of every position in
// order would find — in amortized O(1).
type unitBuckets struct {
	pos       []int32 // positions, grouped by unit
	next, end []int32 // per unit: the next index into pos to try, and its group's end
}

func newUnitBuckets(units int) *unitBuckets {
	units = max(units, 1) // a job without input puts every position in unit 0
	return &unitBuckets{next: make([]int32, units), end: make([]int32, units)}
}

// fill buckets positions 0..n-1 by unitAt.
func (b *unitBuckets) fill(n int, unitAt func(int) int) {
	clear(b.next)
	for p := 0; p < n; p++ {
		b.next[unitAt(p)]++
	}
	sum := int32(0)
	for u, c := range b.next {
		b.next[u], b.end[u] = sum, sum
		sum += c
	}
	b.pos = slices.Grow(b.pos[:0], n)[:n]
	for p := 0; p < n; p++ {
		u := unitAt(p)
		b.pos[b.end[u]] = int32(p)
		b.end[u]++
	}
}

// take returns the lowest position of unit that taken does not mark, and
// marks it.
func (b *unitBuckets) take(unit int, taken []bool) (int, bool) {
	if unit < 0 || unit >= len(b.next) {
		return 0, false
	}
	for b.next[unit] < b.end[unit] {
		p := b.pos[b.next[unit]]
		b.next[unit]++
		if !taken[p] {
			taken[p] = true
			return int(p), true
		}
	}
	return 0, false
}

// cheapestTask selects the untaken position whose data unit is cheapest
// to read from the given machine unit, and marks it taken.
func cheapestTask(in *core.Instance, taken []bool, machine int, unitAt func(int) int) (int, bool) {
	best, bestMC := -1, 0.0
	for p := range taken {
		if taken[p] {
			continue
		}
		mc := in.MSPerMBMC[machine][unitAt(p)]
		if best == -1 || mc < bestMC {
			best, bestMC = p, mc
		}
	}
	if best == -1 {
		return 0, false
	}
	taken[best] = true
	return best, true
}

// pickNode round-robins over the concrete nodes of a machine unit.
func (l *LiPS) pickNode(s *sim.Sim, in *core.Instance, unit int) cluster.NodeID {
	nodes := in.Machines[unit].Nodes
	idx := l.rrNode[unit] % len(nodes)
	l.rrNode[unit]++
	return nodes[idx]
}

// pickStore round-robins over the concrete stores of a store unit.
func (l *LiPS) pickStore(in *core.Instance, unit int) cluster.StoreID {
	stores := in.Stores[unit].Stores
	idx := l.rrStore[unit] % len(stores)
	l.rrStore[unit]++
	return stores[idx]
}

// fallback greedily enqueues all pending tasks data-locally (or on the
// cheapest live node) — only used to break rounding starvation. Tasks
// whose input block is still being relocated by an earlier epoch are left
// alone: enqueueing them against the stale primary would race the move
// (the block could land mid-read); the next epoch plans them at the
// move's destination instead.
func (l *LiPS) fallback(s *sim.Sim, queued []int) {
	cheapest := cluster.NodeID(cluster.None)
	for _, n := range s.C.Nodes {
		if !s.NodeAlive(n.ID) {
			continue
		}
		if cheapest == cluster.None || n.PerECUSec < s.C.Nodes[cheapest].PerECUSec {
			cheapest = n.ID
		}
	}
	if cheapest == cluster.None {
		return // whole cluster down; wait for a recovery
	}
	for _, j := range queued {
		job := s.W.Jobs[j]
		for _, t := range s.PendingTasks(j) {
			if !job.HasInput() {
				if err := s.Enqueue(j, t, cheapest, sim.NoStore, s.Now()); err != nil {
					l.fail(err)
				}
				continue
			}
			if _, _, inFlight := s.BlockMove(int(job.Object), t); inFlight {
				continue
			}
			st := s.P.Primary(job.Object, t)
			node := s.C.Stores[st].Node
			if node == cluster.None || !s.NodeAlive(node) {
				node = cheapest
			}
			if err := s.Enqueue(j, t, node, st, s.Now()); err != nil {
				l.fail(err)
			}
		}
	}
}

func (l *LiPS) fail(err error) {
	if l.Err == nil {
		l.Err = err
	}
}
