package core

import (
	"math"
	"sort"
	"sync"

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
// Parking every job on it is also where the first round starts
// (Model.parkedBasis), so a master needs no phase 1.
//
// A master's storage — the LP, the layout, the price classes, the
// solution vectors, the plan's XD — comes from a pool and goes back on
// Release, so a process that plans every epoch rewrites one master's
// slices instead of allocating them anew.
type OnlineColGen struct {
	*master // nil once released
}

// master is an OnlineColGen's storage, pooled across epochs.
type master struct {
	m   Model       // its layout knows which machines are materialized, and where
	sol lp.Solution // every round's solution, in storage kept across epochs
	xd  matrixBuf   // the plan's XD

	buckets [][]int   // closed machines per price class, ascending index
	opened  []int     // machines materialized per bucket (doubling batch size)
	minMS   []float64 // per bucket: the smallest entry of its members' (equal) MS rows
	tol     float64

	maxExist []float64 // per job: its largest exist-row dual this round, −Inf without input
	scans    int       // (bucket, job) pairs whose stores were scanned, for the count test

	// Scratch of build and rebucket.
	classes  []priceClass
	byKey    map[classKey]int // key → its first class
	bucketOf []int            // per machine: its class, -1 for an open one
	members  []int            // the buckets' one backing array
	seed     []int            // NewOnlineColGen's seed machines
}

// masterPool holds released masters' storage. A pool rather than a field
// of the scheduler, like lp's simplex workspaces: a busy process reuses
// one master every epoch, and an idle one keeps nothing past two garbage
// collections.
var masterPool = sync.Pool{New: func() any { return newMaster() }}

func newMaster() *master { return &master{byKey: make(map[classKey]int)} }

// Release returns the master's storage to the pool, and with it the
// instance matrices and machines Units.Instance drew from its own pool.
// Neither the master nor its instance's MSPerMBMC, BandwidthMBps,
// SSPerMBMC and Machines may be used afterwards: they are nil, so a late
// read panics instead of seeing another epoch's numbers. The Plans Solve
// returned go with them: their XD and Basis are the master's, and
// rounding reads the instance's machines, so round a plan before its
// master is released.
func (cg *OnlineColGen) Release() {
	ms := cg.master
	cg.master = nil
	ms.m.In.releaseMatrices()
	ms.m.In = nil
	masterPool.Put(ms)
}

// ColGenOptions tunes SolveOnlineColGen beyond the LP options.
type ColGenOptions struct {
	// LP tunes the restricted-master solves. WarmStart is ignored: the
	// first round starts at the parked basis, each later one at the round
	// before it.
	LP lp.Options
	// SeedMachines materializes these machine indices up front — the
	// units earlier epochs' plans used — ahead of the §IV greedy
	// machines, which are always seeded. Seeding never affects the
	// optimum (extra columns are merely priced into or out of the basis);
	// it only saves pricing rounds when the guess is right.
	SeedMachines []int
}

// NewOnlineColGen builds the restricted master for one epoch. A fake
// overflow node is appended if the instance lacks one, exactly as
// BuildOnlineModel does.
func NewOnlineColGen(in *Instance, opts ColGenOptions) (*OnlineColGen, error) {
	ms := masterPool.Get().(*master)
	if err := ms.build(in, opts); err != nil {
		ms.m.In = nil
		masterPool.Put(ms)
		return nil, err
	}
	return &OnlineColGen{ms}, nil
}

// build is NewOnlineColGen on ms's storage.
func (ms *master) build(in *Instance, opts ColGenOptions) error {
	ensureFakeNode(in)
	if err := ms.m.build(in, Online, "lips-online-rmp"); err != nil {
		return err
	}
	ms.tol, ms.scans = 1e-9, 0
	ms.maxExist = resize(ms.maxExist, len(in.Jobs))

	// Seeds, opened in this order: the fake node (feasibility), then any
	// hints, then the §IV greedy machines (greedySeed). Without real
	// machines in the master the first duals are the fake node's price,
	// every bucket prices negative and every bucket opens; with them,
	// round one prices against real costs. A total outage has no greedy
	// machine, and F alone seeds.
	seed := ms.seed[:0]
	for l, mach := range in.Machines {
		if mach.Fake {
			seed = append(seed, l)
		}
	}
	seed = greedySeed(in, append(seed, opts.SeedMachines...))
	ms.m.open(seed)
	ms.seed = seed

	ms.rebucket()
	return nil
}

// rebucket partitions the still-closed machines by price class: the exact
// float bits of CPU price, capacity (ECU and effective horizon), and the
// MS cost and bandwidth rows. Within a bucket every machine's columns are
// numerically identical, so one representative prices them all. Buckets
// are ordered by their first member, and hold their members ascending.
func (ms *master) rebucket() {
	in := ms.m.In
	// A machine's class is found by its scalar key, then among the
	// classes of that key by comparing its rows with their first member's.
	closed := len(in.Machines) - len(ms.m.lay.units)
	classes := ms.classes[:0]
	clear(ms.byKey)
	newClass := func(first int) int {
		classes = append(classes, priceClass{first: first, next: -1})
		return len(classes) - 1
	}
	bucketOf := resize(ms.bucketOf, len(in.Machines))
	for l, mach := range in.Machines {
		bucketOf[l] = -1
		if ms.m.lay.isOpen(l) {
			continue
		}
		key := classKey{math.Float64bits(mach.PerECUSecMC), math.Float64bits(mach.ECU), math.Float64bits(in.HorizonOf(l))}
		b, ok := ms.byKey[key]
		if !ok {
			b = newClass(l)
			ms.byKey[key] = b
		} else {
			for !sameRows(in, classes[b].first, l) {
				if classes[b].next < 0 {
					classes[b].next = newClass(l)
				}
				b = classes[b].next
			}
		}
		bucketOf[l] = b
		classes[b].size++
	}
	// Lay the buckets out over one backing array.
	members := resize(ms.members, closed)[:0]
	ms.buckets = resize(ms.buckets, len(classes))
	for b, c := range classes {
		ms.buckets[b] = members[len(members) : len(members) : len(members)+c.size]
		members = members[:len(members)+c.size]
	}
	for l, b := range bucketOf {
		if b >= 0 {
			ms.buckets[b] = append(ms.buckets[b], l)
		}
	}
	ms.opened = resize(ms.opened, len(classes))
	clear(ms.opened)
	ms.minMS = resize(ms.minMS, len(classes))
	for b, c := range classes {
		lo := math.Inf(1)
		for _, v := range in.MSPerMBMC[c.first] {
			if v < lo || v != v { // a NaN sticks
				lo = v
			}
		}
		ms.minMS[b] = lo
	}
	ms.classes, ms.bucketOf, ms.members = classes, bucketOf, members
}

// priceClass is one bucket while rebucket sorts machines into them: its
// first member, its size, and the next class with the same classKey, or -1.
type priceClass struct{ first, size, next int }

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
	cg.boundExistDuals(sol.Dual)
	added := 0
	for b := range cg.buckets {
		closed := cg.buckets[b]
		if len(closed) == 0 {
			continue
		}
		if !cg.bucketPricesNegative(b, sol.Dual) {
			continue
		}
		n := cg.opened[b]
		if n < 1 {
			n = 1
		}
		if n > len(closed) {
			n = len(closed)
		}
		added += cg.m.open(closed[:n])
		cg.buckets[b] = closed[n:]
		cg.opened[b] += n
	}
	return added
}

// boundExistDuals sets maxExist to each input job's largest exist-row
// dual under y, NaN if any of them is NaN.
func (cg *OnlineColGen) boundExistDuals(y []float64) {
	ly := &cg.m.lay
	for k := range cg.maxExist {
		mx := math.Inf(-1)
		for _, v := range y[ly.existRow0+ly.existOff[k] : ly.existRow0+ly.existOff[k+1]] {
			if v > mx || v != v { // a NaN sticks
				mx = v
			}
		}
		cg.maxExist[k] = mx
	}
}

// bucketPricesNegative reports whether any (job, store) column of bucket
// b's still-closed machines has negative reduced cost under the duals y,
// whose exist-row maxima boundExistDuals has taken.
//
// A job's stores are scanned only when a lower bound on all their reduced
// costs fails to rule them out. The bound is the scan's own expression
// with every store's MS entry replaced by the bucket's smallest and every
// store's exist dual by the job's largest. With traffic ≥ 0 each rounded
// operation is monotone in those operands, so no store's d is below the
// bound; and the scan's threshold −tol·(1+|c|) is at most −tol, so a
// bound ≥ −tol passes every store. A NaN bound fails the test and scans,
// as does negative or NaN traffic.
func (cg *OnlineColGen) bucketPricesNegative(b int, y []float64) bool {
	in, ly := cg.m.In, &cg.m.lay
	l := cg.buckets[b][0]
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
		if traffic >= 0 && execMC+cg.minMS[b]*traffic-y[ly.jobRow(k)]-cg.maxExist[k] >= -cg.tol {
			continue
		}
		cg.scans++
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
// materialized LP. The first round starts at the parked basis; should the
// solver reject it, that round starts cold. The stats cover every pricing
// round, also on error.
func (cg *OnlineColGen) Solve(opts ColGenOptions) (*Plan, lp.ColGenStats, error) {
	ro := opts.LP
	ro.WarmStart = cg.m.parkedBasis()
	sol := &cg.sol
	st, err := lp.SolveColGen(cg.m.prob, cg, ro, sol)
	if err != nil {
		return nil, st, err
	}
	if sol.Status != lp.Optimal {
		return nil, st, &SolveError{Kind: Online, Status: sol.Status, Stats: st.Stats,
			Rows: cg.m.prob.NumCons(), Cols: cg.m.prob.NumVars()}
	}
	plan := cg.m.extract(sol, &cg.xd)
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
