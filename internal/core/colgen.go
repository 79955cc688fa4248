package core

import (
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
	m *Model // its layout knows which machines are materialized, and where

	buckets  [][]int // closed machines per price class, ascending index
	opened   []int   // machines materialized per bucket (doubling batch size)
	tol      float64
	machines int // materialized machine count, fake included
}

// ColGenOptions tunes SolveOnlineColGen beyond the LP options.
type ColGenOptions struct {
	// LP tunes the restricted-master solves. WarmStart is managed by the
	// pricing loop itself.
	LP lp.Options
	// SeedMachines materializes these machine indices up front — the hot
	// columns of a previous epoch's plan — ahead of the greedy plan's
	// machines, which are always seeded. Seeding never affects the
	// optimum (extra columns are merely priced into or out of the basis);
	// it only saves pricing rounds when the guess is right.
	SeedMachines []int
}

// NewOnlineColGen builds the restricted master for one epoch. A fake
// overflow node is appended if the instance lacks one, exactly as
// BuildOnlineModel does.
func NewOnlineColGen(in *Instance, opts ColGenOptions) (*OnlineColGen, error) {
	ensureFakeNode(in)
	if err := in.Validate(); err != nil {
		return nil, err
	}
	// buildCo rejects zero bandwidth lazily, as it materializes each xfer
	// coefficient; here every machine must be priceable up front. The
	// check does not depend on the job, so it runs once, blaming the
	// first job that reads input.
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
		break
	}

	cg := &OnlineColGen{m: newModel(in, Online, "lips-online-rmp", true), tol: 1e-9}

	// Eager part: everything whose size does not scale with the machine
	// count — job coverage, placement, store-capacity and data-existence
	// rows, then the placement flows that meet them.
	cg.m.reserve()
	cg.m.addJobRows()
	cg.m.addPlacementRows()
	cg.m.addExistRows()
	cg.m.addFlowCols()

	// Lazy part seeds: the fake node (feasibility), then any hints, then
	// the greedy plan's machines. Without real machines in the master the
	// first duals are the fake node's price, every bucket prices negative
	// and every bucket opens; with them, round one prices against real
	// costs. A total outage has no greedy plan, and F alone seeds.
	for l, mach := range in.Machines {
		if mach.Fake {
			cg.materialize(l)
		}
	}
	seed := func(ls []int) {
		for _, l := range ls {
			if l >= 0 && l < len(in.Machines) && !cg.m.lay.isOpen(l) {
				cg.materialize(l)
			}
		}
	}
	seed(opts.SeedMachines)
	if greedy, err := GreedyPlan(in, PlacementFractions(in)); err == nil {
		seed(greedy.HotMachines())
	}

	cg.rebucket()
	return cg, nil
}

// rebucket partitions the still-closed machines by price class: the exact
// float bits of CPU price, capacity (ECU and effective horizon), and the
// MS cost and bandwidth rows. Within a bucket every machine's columns are
// numerically identical, so one representative prices them all. Buckets
// are ordered by their first member, and hold their members ascending.
func (cg *OnlineColGen) rebucket() {
	in := cg.m.In
	// A machine's bucket is found by its scalar key, then among the
	// buckets of that key by comparing its rows with their first member's.
	type bucket struct{ first, size, next int } // next: the key's next bucket, or -1
	closed := len(in.Machines) - cg.machines
	buckets := make([]bucket, 0, closed)
	byKey := make(map[classKey]int) // key → its first bucket
	newBucket := func(first int) int {
		buckets = append(buckets, bucket{first: first, next: -1})
		return len(buckets) - 1
	}
	bucketOf := make([]int, len(in.Machines))
	for l, mach := range in.Machines {
		bucketOf[l] = -1
		if cg.m.lay.isOpen(l) {
			continue
		}
		key := classKey{math.Float64bits(mach.PerECUSecMC), math.Float64bits(mach.ECU), math.Float64bits(in.HorizonOf(l))}
		b, ok := byKey[key]
		if !ok {
			b = newBucket(l)
			byKey[key] = b
		} else {
			for !sameRows(in, buckets[b].first, l) {
				if buckets[b].next < 0 {
					buckets[b].next = newBucket(l)
				}
				b = buckets[b].next
			}
		}
		bucketOf[l] = b
		buckets[b].size++
	}
	// Lay the buckets out over one backing array.
	members := make([]int, 0, closed)
	cg.buckets = make([][]int, len(buckets))
	for b, bk := range buckets {
		cg.buckets[b] = members[len(members) : len(members) : len(members)+bk.size]
		members = members[:len(members)+bk.size]
	}
	for l, b := range bucketOf {
		if b >= 0 {
			cg.buckets[b] = append(cg.buckets[b], l)
		}
	}
	cg.opened = make([]int, len(buckets))
}

// classKey is the scalar part of a price class: the bits of a machine's
// CPU price, ECU and effective horizon.
type classKey struct{ price, ecu, horizon uint64 }

// sameRows reports whether machines a and b have bitwise equal MS cost and
// bandwidth rows.
func sameRows(in *Instance, a, b int) bool {
	for m := range in.Stores {
		if math.Float64bits(in.MSPerMBMC[a][m]) != math.Float64bits(in.MSPerMBMC[b][m]) ||
			math.Float64bits(in.BandwidthMBps[a][m]) != math.Float64bits(in.BandwidthMBps[b][m]) {
			return false
		}
	}
	return true
}

// materialize reveals machine l: its cpu row, its per-job xfer rows, and
// then every x^t column it hosts.
func (cg *OnlineColGen) materialize(l int) {
	in, ly, prob := cg.m.In, &cg.m.lay, cg.m.prob
	ly.openUnit(l)
	cg.machines++
	cg.m.reserve()
	if !ly.isFake(l) {
		prob.AddCon("", lp.LE, in.Machines[l].ECU*in.HorizonOf(l))
		for k := range in.Jobs {
			if ly.hasData(k) {
				prob.AddCon("", lp.LE, in.Horizon)
			}
		}
	}
	for k := range in.Jobs {
		if err := cg.m.addJobOnMachine(k, l); err != nil {
			panic(err) // NewOnlineColGen vetted every bandwidth
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
	in, ly := cg.m.In, &cg.m.lay
	mach := in.Machines[l]
	for k, job := range in.Jobs {
		execMC := job.CPUSec * mach.PerECUSecMC
		if job.Data == NoData {
			c := execMC
			if c-y[ly.jobRow(k)] < -cg.tol*(1+math.Abs(c)) {
				return true
			}
			continue
		}
		traffic := in.Data[job.Data].SizeMB * job.accessFrac()
		for store := range in.Stores {
			c := execMC + in.MSPerMBMC[l][store]*traffic
			d := c - y[ly.jobRow(k)] - y[ly.existRow(k, store)]
			if d < -cg.tol*(1+math.Abs(c)) {
				return true
			}
		}
	}
	return false
}

// Solve runs the column-generation loop to optimality and extracts a Plan
// (or a *SolveError) exactly as Model.Solve does for the fully
// materialized LP. The stats cover every pricing round, also on error.
func (cg *OnlineColGen) Solve(opts ColGenOptions) (*Plan, lp.ColGenStats, error) {
	sol, st, err := lp.SolveColGen(cg.m.prob, cg, opts.LP)
	if err != nil {
		return nil, st, err
	}
	if sol.Status != lp.Optimal {
		return nil, st, &SolveError{Kind: Online, Status: sol.Status, Stats: st.Stats, WarmStarted: sol.WarmStarted,
			Rows: cg.m.prob.NumCons(), Cols: cg.m.prob.NumVars()}
	}
	plan := cg.m.extract(sol)
	plan.Stats = st.Stats // every pricing round, not only the last re-solve
	return plan, st, nil
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
