package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"lips/internal/lp"
)

// OnlineColGen is the restricted-master view of the online model (Fig. 4)
// for clusters too large to materialize in full. The full LP has one
// x^t_{klm} column per (job, machine, store) triple and one cpu/xfer row
// per machine — at 10k nodes that cross product dwarfs the part of the
// optimum that is ever nonzero. The oracle exploits the structure of the
// pricing problem: an unmaterialized machine carries no cpu or xfer row,
// so those rows' duals are implicitly zero and the reduced cost of its
// columns depends on the machine only through its price class — its CPU
// price, capacity, and cost/bandwidth rows. Machines are therefore
// bucketed by an exact fingerprint of those numbers; one representative
// prices the whole bucket, and negative buckets materialize machines in
// doubling batches until no bucket prices below zero. At that point every
// unrevealed column has nonnegative reduced cost and every unrevealed row
// holds trivially (only a machine's own columns touch its rows), so the
// restricted optimum is optimal for the full instance — to the same
// tolerances as a direct solve.
//
// The fake overflow node is always materialized: it alone makes the
// restricted master feasible (job coverage rows are GE 1 and F is exempt
// from capacity and transfer rows), so an infeasible restricted solve
// proves the full instance infeasible and no Farkas pricing is needed.
type OnlineColGen struct {
	m *Model

	jobRow   []lp.Con
	capRow   []lp.Con
	existRow map[[2]int]lp.Con // (job, store) for jobs with data
	cpuRow   []lp.Con          // per machine; -1 until materialized
	xferRow  map[[2]int]lp.Con // (job, machine)

	open     []bool  // machine materialized
	buckets  [][]int // closed machines per price class, ascending index
	opened   []int   // machines materialized per bucket (doubling batch size)
	tol      float64
	machines int // materialized machine count, fake included
}

// ColGenOptions tunes SolveOnlineColGen beyond the LP options.
type ColGenOptions struct {
	// LP tunes the restricted-master solves. WarmStart is managed by the
	// pricing loop itself; Dual is worth enabling for epoch re-solves.
	LP lp.Options
	// SeedMachines materializes these machine indices up front — the hot
	// columns of a previous epoch's plan. Seeding never affects the
	// optimum (extra columns are merely priced into or out of the basis);
	// it only saves pricing rounds when the guess is right.
	SeedMachines []int
}

// NewOnlineColGen builds the restricted master for one epoch. A fake
// overflow node is appended if the instance lacks one, exactly as
// BuildOnlineModel does.
func NewOnlineColGen(in *Instance, opts ColGenOptions) (*OnlineColGen, error) {
	hasFake := false
	for _, mach := range in.Machines {
		if mach.Fake {
			hasFake = true
			break
		}
	}
	if !hasFake {
		in.AddFakeNode(FakeNodePriceMC)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	// buildCo rejects zero bandwidth lazily, as it materializes each xfer
	// coefficient; here every machine must be priceable up front.
	for k, job := range in.Jobs {
		if job.Data == NoData {
			continue
		}
		for l, mach := range in.Machines {
			if mach.Fake {
				continue
			}
			for m := range in.Stores {
				if in.BandwidthMBps[l][m] <= 0 {
					return nil, fmt.Errorf("core: zero bandwidth between machine %d and store %d (job %d)", l, m, k)
				}
			}
		}
	}

	cg := &OnlineColGen{
		m: &Model{In: in, Kind: Online, prob: lp.New("lips-online-rmp"),
			xt: make(map[xtKey]lp.Var), xdFlow: make(map[[3]int]lp.Var), hasXD: true},
		existRow: make(map[[2]int]lp.Con),
		xferRow:  make(map[[2]int]lp.Con),
		open:     make([]bool, len(in.Machines)),
		tol:      1e-9,
	}
	prob := cg.m.prob

	// Eager part: everything whose size does not scale with the machine
	// count — placement flows, job coverage, placement and store-capacity
	// rows, and data-existence rows.
	for i, d := range in.Data {
		for _, o := range sortedOrigins(d) {
			for j := range in.Stores {
				cg.m.xdFlow[[3]int{i, o, j}] = prob.AddVar(fmt.Sprintf("xd[%d,%d,%d]", i, o, j), 0, 1,
					in.SSPerMBMC[o][j]*d.SizeMB)
			}
		}
	}
	for k := range in.Jobs {
		cg.jobRow = append(cg.jobRow, prob.AddCon(fmt.Sprintf("job[%d]", k), lp.GE, 1))
	}
	for i, d := range in.Data {
		for _, o := range sortedOrigins(d) {
			row := prob.AddCon(fmt.Sprintf("place[%d,%d]", i, o), lp.EQ, d.Origin[o])
			for j := range in.Stores {
				prob.SetCoef(row, cg.m.xdFlow[[3]int{i, o, j}], 1)
			}
		}
	}
	for j, s := range in.Stores {
		row := prob.AddCon(fmt.Sprintf("cap[%d]", j), lp.LE, s.CapacityMB)
		cg.capRow = append(cg.capRow, row)
		for i, d := range in.Data {
			for _, o := range sortedOrigins(d) {
				prob.SetCoef(row, cg.m.xdFlow[[3]int{i, o, j}], d.SizeMB)
			}
		}
	}
	for k, job := range in.Jobs {
		if job.Data == NoData {
			continue
		}
		d := in.Data[job.Data]
		for store := range in.Stores {
			row := prob.AddCon(fmt.Sprintf("exist[%d,%d]", k, store), lp.LE, 0)
			cg.existRow[[2]int{k, store}] = row
			for _, o := range sortedOrigins(d) {
				prob.SetCoef(row, cg.m.xdFlow[[3]int{job.Data, o, store}], -1)
			}
		}
	}
	cg.cpuRow = make([]lp.Con, len(in.Machines))
	for l := range cg.cpuRow {
		cg.cpuRow[l] = -1
	}

	// Lazy part seeds: the fake node (feasibility), then any hints.
	for l, mach := range in.Machines {
		if mach.Fake {
			cg.materialize(l)
		}
	}
	for _, l := range opts.SeedMachines {
		if l >= 0 && l < len(in.Machines) && !cg.open[l] {
			cg.materialize(l)
		}
	}

	cg.rebucket()
	return cg, nil
}

// rebucket partitions the still-closed machines by price class: the exact
// float bits of CPU price, capacity (ECU and effective horizon), and the
// MS cost and bandwidth rows. Within a bucket every machine's columns are
// numerically identical, so one representative prices them all. Called at
// construction and again after Reprice, whose drifted prices may split or
// merge classes.
func (cg *OnlineColGen) rebucket() {
	in := cg.m.In
	cg.buckets = cg.buckets[:0]
	cg.opened = cg.opened[:0]
	byClass := make(map[string]int)
	for l, mach := range in.Machines {
		if cg.open[l] {
			continue
		}
		key := machineFingerprint(in, l, mach)
		b, ok := byClass[key]
		if !ok {
			b = len(cg.buckets)
			byClass[key] = b
			cg.buckets = append(cg.buckets, nil)
			cg.opened = append(cg.opened, 0)
		}
		cg.buckets[b] = append(cg.buckets[b], l)
	}
}

// machineFingerprint is the exact-bits price-class key of machine l.
func machineFingerprint(in *Instance, l int, mach Machine) string {
	buf := make([]byte, 0, 8*(3+2*len(in.Stores)))
	put := func(f float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	put(mach.PerECUSecMC)
	put(mach.ECU)
	put(in.HorizonOf(l))
	for m := range in.Stores {
		put(in.MSPerMBMC[l][m])
		put(in.BandwidthMBps[l][m])
	}
	return string(buf)
}

// materialize reveals machine l: its cpu row, its per-job xfer rows, and
// every x^t column it hosts.
func (cg *OnlineColGen) materialize(l int) {
	in := cg.m.In
	prob := cg.m.prob
	mach := in.Machines[l]
	cg.open[l] = true
	cg.machines++
	if !mach.Fake {
		cg.cpuRow[l] = prob.AddCon(fmt.Sprintf("cpu[%d]", l), lp.LE, mach.ECU*in.HorizonOf(l))
	}
	for k, job := range in.Jobs {
		execMC := job.CPUSec * mach.PerECUSecMC
		if job.Data == NoData {
			v := prob.AddVar(fmt.Sprintf("xt[%d,%d,-]", k, l), 0, 1, execMC)
			cg.m.xt[xtKey{k, l, noStore}] = v
			prob.SetCoef(cg.jobRow[k], v, 1)
			if !mach.Fake {
				prob.SetCoef(cg.cpuRow[l], v, job.CPUSec)
			}
			continue
		}
		traffic := in.Data[job.Data].SizeMB * job.accessFrac()
		var xfer lp.Con = -1
		if !mach.Fake {
			xfer = prob.AddCon(fmt.Sprintf("xfer[%d,%d]", k, l), lp.LE, in.Horizon)
			cg.xferRow[[2]int{k, l}] = xfer
		}
		for store := range in.Stores {
			v := prob.AddVar(fmt.Sprintf("xt[%d,%d,%d]", k, l, store), 0, 1,
				execMC+in.MSPerMBMC[l][store]*traffic)
			cg.m.xt[xtKey{k, l, store}] = v
			prob.SetCoef(cg.jobRow[k], v, 1)
			prob.SetCoef(cg.existRow[[2]int{k, store}], v, 1)
			if !mach.Fake {
				prob.SetCoef(cg.cpuRow[l], v, job.CPUSec)
				prob.SetCoef(xfer, v, traffic/in.BandwidthMBps[l][store])
			}
		}
	}
}

// Price implements lp.Oracle. An unmaterialized machine's cpu and xfer
// rows carry implied dual zero, so the reduced cost of its column for
// (job k, store m) is cost(k, class, m) − y_job[k] − y_exist[k,m] — the
// same for every machine of its price class. Each negative bucket reveals
// a doubling batch of machines; an infeasible or unbounded restricted
// solve adds nothing (see the type comment: both verdicts transfer to the
// full instance).
func (cg *OnlineColGen) Price(_ *lp.Problem, sol *lp.Solution) int {
	if sol.Status != lp.Optimal {
		return 0
	}
	added := 0
	for b := range cg.buckets {
		closed := cg.buckets[b]
		if len(closed) == 0 {
			continue
		}
		if !cg.bucketPricesNegative(closed[0], sol.Dual) {
			continue
		}
		n := cg.opened[b]
		if n < 1 {
			n = 1
		}
		if n > len(closed) {
			n = len(closed)
		}
		for _, l := range closed[:n] {
			cg.materialize(l)
			added++
		}
		cg.buckets[b] = closed[n:]
		cg.opened[b] += n
	}
	return added
}

// bucketPricesNegative reports whether any (job, store) column of the
// still-closed machine l has negative reduced cost under the duals y.
func (cg *OnlineColGen) bucketPricesNegative(l int, y []float64) bool {
	in := cg.m.In
	mach := in.Machines[l]
	for k, job := range in.Jobs {
		execMC := job.CPUSec * mach.PerECUSecMC
		if job.Data == NoData {
			c := execMC
			if c-y[cg.jobRow[k]] < -cg.tol*(1+math.Abs(c)) {
				return true
			}
			continue
		}
		traffic := in.Data[job.Data].SizeMB * job.accessFrac()
		for store := range in.Stores {
			c := execMC + in.MSPerMBMC[l][store]*traffic
			d := c - y[cg.jobRow[k]] - y[cg.existRow[[2]int{k, store}]]
			if d < -cg.tol*(1+math.Abs(c)) {
				return true
			}
		}
	}
	return false
}

// Solve runs the column-generation loop to optimality and extracts a Plan,
// exactly as Model.Solve does for the fully materialized LP.
func (cg *OnlineColGen) Solve(opts ColGenOptions) (*Plan, lp.ColGenStats, error) {
	sol, st, err := lp.SolveColGen(cg.m.prob, cg, opts.LP)
	if err != nil {
		return nil, st, err
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, st, fmt.Errorf("core: online model infeasible")
	default:
		return nil, st, fmt.Errorf("core: online model: solver status %v after %d iterations", sol.Status, sol.Iters)
	}
	plan := cg.m.extract(sol)
	plan.Stats = st.Stats // every pricing round, not only the last re-solve
	plan.ColGenRounds = st.Rounds
	plan.ColGenColumns = st.Columns
	return plan, st, nil
}

// Resolve re-runs the pricing loop after a Reprice, warm-starting the
// restricted master from basis (typically the previous Solve's
// Plan.Basis). Enable opts.LP.Dual so a basis left primal infeasible by
// RHS or price drift is repaired by dual pivots instead of a cold restart.
func (cg *OnlineColGen) Resolve(opts ColGenOptions, basis *lp.Basis) (*Plan, lp.ColGenStats, error) {
	opts.LP.WarmStart = basis
	return cg.Solve(opts)
}

// Reprice rewrites the restricted master's costs and right-hand sides from
// next — an instance with the same shape (jobs, data, stores, machines in
// the same order) but drifted prices, capacities, horizon or origin mixes.
// Coefficients are untouched, so quantities that enter the matrix — job
// CPU demand, data sizes, access fractions and bandwidths — must be
// unchanged; CPU demand and sizes are verified, the rest is the caller's
// contract. Follow with Resolve(opts, plan.Basis) for the incremental
// epoch-to-epoch path.
func (cg *OnlineColGen) Reprice(next *Instance) error {
	in := cg.m.In
	if len(next.Jobs) != len(in.Jobs) || len(next.Data) != len(in.Data) ||
		len(next.Machines) != len(in.Machines) || len(next.Stores) != len(in.Stores) {
		return fmt.Errorf("core: Reprice shape mismatch: %d/%d/%d/%d jobs/data/machines/stores, want %d/%d/%d/%d",
			len(next.Jobs), len(next.Data), len(next.Machines), len(next.Stores),
			len(in.Jobs), len(in.Data), len(in.Machines), len(in.Stores))
	}
	for k := range next.Jobs {
		if next.Jobs[k].CPUSec != in.Jobs[k].CPUSec || next.Jobs[k].Data != in.Jobs[k].Data {
			return fmt.Errorf("core: Reprice job %d changed demand or data binding", k)
		}
	}
	for i := range next.Data {
		if next.Data[i].SizeMB != in.Data[i].SizeMB || len(next.Data[i].Origin) != len(in.Data[i].Origin) {
			return fmt.Errorf("core: Reprice data %d changed size or origin set", i)
		}
		for o := range next.Data[i].Origin {
			if _, ok := in.Data[i].Origin[o]; !ok {
				return fmt.Errorf("core: Reprice data %d changed origin set", i)
			}
		}
	}
	prob := cg.m.prob
	for i, d := range next.Data {
		for _, o := range sortedOrigins(d) {
			for j := range next.Stores {
				v, ok := cg.m.xdFlow[[3]int{i, o, j}]
				if !ok {
					return fmt.Errorf("core: Reprice data %d gained origin %d", i, o)
				}
				prob.SetCost(v, next.SSPerMBMC[o][j]*d.SizeMB)
			}
		}
	}
	for key, v := range cg.m.xt {
		mach := next.Machines[key.l]
		job := next.Jobs[key.k]
		execMC := job.CPUSec * mach.PerECUSecMC
		if key.m == noStore {
			prob.SetCost(v, execMC)
			continue
		}
		traffic := next.Data[job.Data].SizeMB * job.accessFrac()
		prob.SetCost(v, execMC+next.MSPerMBMC[key.l][key.m]*traffic)
	}
	// Placement rows follow the eager construction order: data items in
	// index order, origins sorted within each.
	row := len(cg.jobRow)
	for _, d := range next.Data {
		for _, o := range sortedOrigins(d) {
			prob.SetRHS(lp.Con(row), d.Origin[o])
			row++
		}
	}
	for j, s := range next.Stores {
		prob.SetRHS(cg.capRow[j], s.CapacityMB)
	}
	for l, mach := range next.Machines {
		if cg.cpuRow[l] >= 0 {
			prob.SetRHS(cg.cpuRow[l], mach.ECU*next.HorizonOf(l))
		}
	}
	for _, row := range cg.xferRow {
		prob.SetRHS(row, next.Horizon)
	}
	cg.m.In = next
	// Drift can split a price class (e.g. a per-machine spot adjustment):
	// re-partition the closed machines so every bucket is again exactly
	// homogeneous before the next pricing round.
	cg.rebucket()
	return nil
}

// SolveOnlineColGen builds and solves one epoch's online model by column
// generation: the scalable equivalent of BuildOnlineModel + Model.Solve.
// It appends a fake overflow node to in when missing, like BuildOnlineModel.
func SolveOnlineColGen(in *Instance, opts ColGenOptions) (*Plan, lp.ColGenStats, error) {
	cg, err := NewOnlineColGen(in, opts)
	if err != nil {
		return nil, lp.ColGenStats{}, err
	}
	return cg.Solve(opts)
}

// HotMachines lists the machine units carrying nonzero task fractions in a
// plan, ascending — the natural SeedMachines hint for the next epoch's
// restricted master.
func (p *Plan) HotMachines() []int {
	seen := make(map[int]bool)
	for k := range p.XT {
		for lm := range p.XT[k] {
			seen[lm[0]] = true
		}
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}
