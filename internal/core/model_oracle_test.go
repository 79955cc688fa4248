package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/lp"
)

// This file keeps the builders the layout replaced — one map insert per
// variable, one Sprintf per name, one SetCoef per coefficient — verbatim
// but for their receiver types, as the oracle the arithmetic builders are
// compared against. They are slow and obviously right; keep them that way.

// xtKey addresses one x^t_{klm} variable. Jobs without input data have a
// single per-machine variable with store = noStore.
type xtKey struct{ k, l, m int }

// oracleModel is the map-indexed Model.
type oracleModel struct {
	In   *Instance
	Kind Kind

	prob   *lp.Problem
	xt     map[xtKey]lp.Var
	xdFlow map[[3]int]lp.Var // (item, origin unit, dest store) → flow
}

func oracleCo(in *Instance, kind Kind) (*oracleModel, error) {
	m := &oracleModel{In: in, Kind: kind, prob: lp.New("lips-" + kind.String()),
		xt: make(map[xtKey]lp.Var), xdFlow: make(map[[3]int]lp.Var)}

	// Placement flow variables with relocation cost (objective term
	// (6)/(16)): f_ioj moves the item-i portion at origin o to store j
	// at SS_oj per MB.
	for i, d := range in.Data {
		for _, o := range sortedOrigins(d) {
			for j := range in.Stores {
				v := m.prob.AddVar(fmt.Sprintf("xd[%d,%d,%d]", i, o, j), 0, 1,
					in.SSPerMBMC[o][j]*d.SizeMB)
				m.xdFlow[[3]int{i, o, j}] = v
			}
		}
	}

	m.addTaskVars()
	m.addJobCoverage()

	// Constraint (9)/(19): all data gets placed — every origin portion
	// flows somewhere, exactly once. The paper writes Σ_j x^d_ij ≥ 1;
	// equality is required here because zero-cost self-flows would
	// otherwise let x^d report more data on a store than exists, and the
	// resulting task assignments would force unplanned block moves.
	for i, d := range in.Data {
		for _, o := range sortedOrigins(d) {
			row := m.prob.AddCon(fmt.Sprintf("place[%d,%d]", i, o), lp.EQ, d.Origin[o])
			for j := range in.Stores {
				m.prob.SetCoef(row, m.xdFlow[[3]int{i, o, j}], 1)
			}
		}
	}
	// Constraint (11)/(22): store capacity over x^d_ij = Σ_o f_ioj.
	for j, s := range in.Stores {
		row := m.prob.AddCon(fmt.Sprintf("cap[%d]", j), lp.LE, s.CapacityMB)
		for i, d := range in.Data {
			for _, o := range sortedOrigins(d) {
				m.prob.SetCoef(row, m.xdFlow[[3]int{i, o, j}], d.SizeMB)
			}
		}
	}

	m.addMachineCapacity()

	// Constraint (13)/(24): data accessed must exist on the store.
	for k, job := range in.Jobs {
		if job.Data == NoData {
			continue
		}
		d := in.Data[job.Data]
		for store := range in.Stores {
			row := m.prob.AddCon(fmt.Sprintf("exist[%d,%d]", k, store), lp.LE, 0)
			for l := range in.Machines {
				if v, ok := m.xt[xtKey{k, l, store}]; ok {
					m.prob.SetCoef(row, v, 1)
				}
			}
			for _, o := range sortedOrigins(d) {
				m.prob.SetCoef(row, m.xdFlow[[3]int{job.Data, o, store}], -1)
			}
		}
	}

	// Constraint (21), online only: per (job, machine) transfer time must
	// fit in the epoch. The fake node is exempt — work parked on F is
	// deferred, not executed.
	if kind == Online {
		for k, job := range in.Jobs {
			if job.Data == NoData {
				continue
			}
			traffic := in.Data[job.Data].SizeMB * job.accessFrac()
			for l, mach := range in.Machines {
				if mach.Fake {
					continue
				}
				row := m.prob.AddCon(fmt.Sprintf("xfer[%d,%d]", k, l), lp.LE, in.Horizon)
				for store := range in.Stores {
					if v, ok := m.xt[xtKey{k, l, store}]; ok {
						bw := in.BandwidthMBps[l][store]
						if bw <= 0 {
							return nil, fmt.Errorf("core: zero bandwidth between machine %d and store %d", l, store)
						}
						m.prob.SetCoef(row, v, traffic/bw)
					}
				}
			}
		}
	}
	return m, nil
}

// addTaskVars creates the x^t_{klm} variables with their objective terms
// (7)+(8): execution cost JM_kl plus runtime transfer MS_lm·Size(D_i).
func (m *oracleModel) addTaskVars() {
	in := m.In
	for k, job := range in.Jobs {
		for l, mach := range in.Machines {
			execMC := job.CPUSec * mach.PerECUSecMC // JM_kl
			if job.Data == NoData {
				v := m.prob.AddVar(fmt.Sprintf("xt[%d,%d,-]", k, l), 0, 1, execMC)
				m.xt[xtKey{k, l, noStore}] = v
				continue
			}
			traffic := in.Data[job.Data].SizeMB * job.accessFrac()
			for store := range in.Stores {
				transferMC := in.MSPerMBMC[l][store] * traffic
				v := m.prob.AddVar(fmt.Sprintf("xt[%d,%d,%d]", k, l, store), 0, 1, execMC+transferMC)
				m.xt[xtKey{k, l, store}] = v
			}
		}
	}
}

// addJobCoverage adds constraint (2)/(10)/(20): every job fully scheduled.
func (m *oracleModel) addJobCoverage() {
	in := m.In
	for k := range in.Jobs {
		row := m.prob.AddCon(fmt.Sprintf("job[%d]", k), lp.GE, 1)
		for l := range in.Machines {
			if v, ok := m.xt[xtKey{k, l, noStore}]; ok {
				m.prob.SetCoef(row, v, 1)
			}
			for store := range in.Stores {
				if v, ok := m.xt[xtKey{k, l, store}]; ok {
					m.prob.SetCoef(row, v, 1)
				}
			}
		}
	}
}

// addMachineCapacity adds constraint (4)/(12)/(23): CPU demand placed on a
// machine fits its ECU supply over the horizon. The fake node is exempt.
func (m *oracleModel) addMachineCapacity() {
	in := m.In
	for l, mach := range in.Machines {
		if mach.Fake {
			continue
		}
		row := m.prob.AddCon(fmt.Sprintf("cpu[%d]", l), lp.LE, mach.ECU*in.HorizonOf(l))
		for k, job := range in.Jobs {
			if v, ok := m.xt[xtKey{k, l, noStore}]; ok {
				m.prob.SetCoef(row, v, job.CPUSec)
			}
			for store := range in.Stores {
				if v, ok := m.xt[xtKey{k, l, store}]; ok {
					m.prob.SetCoef(row, v, job.CPUSec)
				}
			}
		}
	}
}

// oracleColGen is the map-indexed restricted master: NewOnlineColGen's
// eager part, materialize, Price and bucketPricesNegative as they were.
type oracleColGen struct {
	m *oracleModel

	jobRow   []lp.Con
	capRow   []lp.Con
	existRow map[[2]int]lp.Con // (job, store) for jobs with data
	cpuRow   []lp.Con          // per machine; -1 until materialized
	xferRow  map[[2]int]lp.Con // (job, machine)

	open    []bool  // machine materialized
	buckets [][]int // closed machines per price class, ascending index
	opened  []int   // machines materialized per bucket (doubling batch size)
	tol     float64
}

// newOracleColGen builds the master over an instance that already has its
// fake node.
func newOracleColGen(in *Instance, opts ColGenOptions) *oracleColGen {
	cg := &oracleColGen{
		m: &oracleModel{In: in, Kind: Online, prob: lp.New("lips-online-rmp"),
			xt: make(map[xtKey]lp.Var), xdFlow: make(map[[3]int]lp.Var)},
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

	// Lazy part seeds: the fake node (feasibility), then any hints, then
	// the greedy machines in ascending order.
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
	greedy := oracleGreedyMachines(in)
	for l := range in.Machines {
		if greedy[l] && !cg.open[l] {
			cg.materialize(l)
		}
	}

	cg.rebucket()
	return cg
}

// oracleGreedyMachines marks the paper's §IV greedy choices by full scan:
// for each job and each store holding part of its data (once, storeless,
// for a job without input), the first real machine minimising
// JM_kl + MS_lm·Size.
func oracleGreedyMachines(in *Instance) []bool {
	greedy := make([]bool, len(in.Machines))
	for _, job := range in.Jobs {
		stores := []int{noStore}
		if job.Data != NoData {
			stores = nil
			for store := range in.Stores {
				if in.Data[job.Data].Origin[store] > 1e-12 {
					stores = append(stores, store)
				}
			}
		}
		for _, store := range stores {
			best, bestMC := -1, 0.0
			for l, mach := range in.Machines {
				if mach.Fake {
					continue
				}
				mc := job.CPUSec * mach.PerECUSecMC
				if store != noStore {
					mc += in.MSPerMBMC[l][store] * in.Data[job.Data].SizeMB
				}
				if best == -1 || mc < bestMC {
					best, bestMC = l, mc
				}
			}
			if best >= 0 {
				greedy[best] = true
			}
		}
	}
	return greedy
}

// rebucket partitions the still-closed machines by price class: the exact
// float bits of CPU price, capacity (ECU and effective horizon), and the
// MS cost and bandwidth rows. Within a bucket every machine's columns are
// numerically identical, so one representative prices them all.
func (cg *oracleColGen) rebucket() {
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

// materialize reveals machine l: its cpu row, its per-job xfer rows, and
// every x^t column it hosts.
func (cg *oracleColGen) materialize(l int) {
	in := cg.m.In
	prob := cg.m.prob
	mach := in.Machines[l]
	cg.open[l] = true
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
func (cg *oracleColGen) Price(_ *lp.Problem, sol *lp.Solution) int {
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
func (cg *oracleColGen) bucketPricesNegative(l int, y []float64) bool {
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

// lpText is the problem in lp.Write's format: every name, bound, cost,
// sense, right-hand side and coefficient, in stored order.
func lpText(t *testing.T, p *lp.Problem) string {
	t.Helper()
	var buf bytes.Buffer
	if err := lp.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// requireSameLP fails on the first line in which got's text differs from
// the oracle's.
func requireSameLP(t *testing.T, label string, got, want *lp.Problem) {
	t.Helper()
	g, w := strings.Split(lpText(t, got), "\n"), strings.Split(lpText(t, want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Fatalf("%s: line %d: got %q, oracle %q (%d vs %d lines)",
				label, i+1, append(g, "<end>")[min(i, len(g))], append(w, "<end>")[min(i, len(w))], len(g), len(w))
		}
	}
}

// requireLayoutRoundTrip decodes every column and row index of the model
// through its layout and re-encodes it, and requires every variable the
// oracle's maps hold to sit at the column the layout computes for it.
func requireLayoutRoundTrip(t *testing.T, label string, m *Model, om *oracleModel) {
	t.Helper()
	ly := &m.lay
	if ly.cols != m.prob.NumVars() || ly.rows != m.prob.NumCons() {
		t.Fatalf("%s: layout says %d×%d, the LP is %d×%d", label, ly.rows, ly.cols, m.prob.NumCons(), m.prob.NumVars())
	}
	if len(om.xdFlow)+len(om.xt) != ly.cols {
		t.Fatalf("%s: oracle maps hold %d variables for %d columns", label, len(om.xdFlow)+len(om.xt), ly.cols)
	}
	for v := lp.Var(0); int(v) < ly.cols; v++ {
		flow, a, b, c := ly.colAt(v)
		if flow {
			if got := ly.xd(a, b, c); got != v {
				t.Fatalf("%s: column %d decodes to xd(%d,%d,%d), which encodes to %d", label, v, a, b, c, got)
			}
			if ov, ok := om.xdFlow[[3]int{a, ly.origins[ly.originOff[a]+b], c}]; !ok || ov != v {
				t.Fatalf("%s: column %d is xd(%d,%d,%d), the oracle has it at %d (%v)", label, v, a, b, c, ov, ok)
			}
			continue
		}
		if got := ly.xtFirst(a, b) + lp.Var(c); got != v || !ly.isOpen(b) {
			t.Fatalf("%s: column %d decodes to xt(%d,%d,%d), which encodes to %d", label, v, a, b, c, got)
		}
		if ov, ok := om.xt[xtKey{a, b, ly.storeAt(a, c)}]; !ok || ov != v {
			t.Fatalf("%s: column %d is xt(%d,%d,%d), the oracle has it at %d (%v)", label, v, a, b, c, ov, ok)
		}
	}
	next := lp.Var(ly.xt0())
	ly.eachXT(func(v lp.Var, k, l, store int) {
		if ov, ok := om.xt[xtKey{k, l, store}]; v != next || !ok || ov != v {
			t.Fatalf("%s: eachXT visits (%d,%d,%d) at %d, want %d; the oracle has it at %d (%v)", label, k, l, store, v, next, ov, ok)
		}
		next++
	})
	if int(next) != ly.cols {
		t.Fatalf("%s: eachXT stopped at column %d of %d", label, next, ly.cols)
	}
	for c := lp.Con(0); int(c) < ly.rows; c++ {
		var got lp.Con
		switch blk, a, b := ly.rowAt(c); blk {
		case rowJob:
			got = ly.jobRow(a)
		case rowPlace:
			got = ly.placeRow(a, b)
		case rowCap:
			got = ly.capRow(a)
		case rowCPU:
			got = ly.cpuRow(a)
		case rowExist:
			got = ly.existRow(a, b)
		case rowXfer:
			got = ly.xferRow(a, b)
		}
		if got != c {
			t.Fatalf("%s: row %d (%s) re-encodes to %d", label, c, ly.ConName(c), got)
		}
	}
}

// randomOracleInstance draws a small instance with everything the layout
// has to count around: jobs without input, items with several origins,
// several readers or none, zero CPU demand and zero size, a fake node
// before, between or after the real machines or absent, uptimes, and
// machine units already lost to FilterMachines.
func randomOracleInstance(rng *rand.Rand) *Instance {
	stores := 1 + rng.Intn(4)
	in := nodedInstance(1+rng.Intn(12), 1+rng.Intn(7), stores, 1+rng.Intn(3), rng)
	for i := range in.Data {
		origin := make(map[int]float64)
		n := 1 + rng.Intn(min(3, stores))
		for _, o := range rng.Perm(stores)[:n] {
			origin[o] = 1 / float64(n)
		}
		in.Data[i].Origin = origin
		if rng.Intn(8) == 0 {
			in.Data[i].SizeMB = 0
		}
	}
	for k := range in.Jobs {
		switch rng.Intn(8) {
		case 0:
			in.Jobs[k].Data = NoData
		case 1:
			in.Jobs[k].Data = rng.Intn(len(in.Data)) // a second reader, or its own item
		case 2:
			in.Jobs[k].CPUSec = 0
		case 3:
			in.Jobs[k].AccessFrac = 0.25 + rng.Float64()/2
		}
	}
	if rng.Intn(3) == 0 {
		in.Machines[rng.Intn(len(in.Machines))].Uptime = in.Horizon / 2
	}
	if rng.Intn(2) == 0 {
		// A fake node that is not last: real machines follow it.
		in.AddFakeNode(FakeNodePriceMC)
		for n := rng.Intn(3); n > 0; n-- {
			l := rng.Intn(len(in.Machines) - 1)
			mach := in.Machines[l]
			mach.Name = fmt.Sprintf("late%d", n)
			mach.Nodes = []cluster.NodeID{cluster.NodeID(100 + n)}
			in.Machines = append(in.Machines, mach)
			in.MSPerMBMC = append(in.MSPerMBMC, in.MSPerMBMC[l])
			in.BandwidthMBps = append(in.BandwidthMBps, in.BandwidthMBps[l])
		}
		if rng.Intn(2) == 0 {
			// ... or first.
			last := len(in.Machines) - 1
			in.Machines[0], in.Machines[last] = in.Machines[last], in.Machines[0]
			in.MSPerMBMC[0], in.MSPerMBMC[last] = in.MSPerMBMC[last], in.MSPerMBMC[0]
			in.BandwidthMBps[0], in.BandwidthMBps[last] = in.BandwidthMBps[last], in.BandwidthMBps[0]
		}
	}
	if len(in.Machines) > 1 && rng.Intn(2) == 0 { // never down to no machine at all
		dead := cluster.NodeID(rng.Intn(len(in.Machines)))
		in.FilterMachines(func(n cluster.NodeID) bool { return n != dead })
	}
	return in
}

// withFake clones in and appends the fake node if it has none, as the
// online builders do to the instance they are handed.
func withFake(in *Instance) *Instance {
	out := in.clone()
	for _, mach := range out.Machines {
		if mach.Fake {
			return out
		}
	}
	out.AddFakeNode(FakeNodePriceMC)
	return out
}

// TestModelOracle requires the arithmetic builders to emit, on random
// instances, exactly the LP the map-and-Sprintf builders emit — compared as
// lp.Write text, so names, order and every float must agree — for both model
// kinds and for the restricted master after its construction and
// after every pricing round, and checks the layout's decoders against its
// encoders and the oracle's maps on each.
func TestModelOracle(t *testing.T) {
	pricedIn := 0
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomOracleInstance(rng)
		label := fmt.Sprintf("seed %d", seed)

		om, oerr := oracleCo(withFake(in), Online)
		m, err := BuildOnlineModel(in.clone())
		if err != nil || oerr != nil {
			t.Fatalf("%s: online: %v / oracle %v", label, err, oerr)
		}
		requireSameLP(t, label+" online", m.prob, om.prob)
		requireLayoutRoundTrip(t, label+" online", m, om)

		om, oerr = oracleCo(in.clone(), CoSchedule)
		m, err = BuildCoScheduleModel(in.clone())
		if err != nil || oerr != nil {
			t.Fatalf("%s: co-schedule: %v / oracle %v", label, err, oerr)
		}
		requireSameLP(t, label+" co-schedule", m.prob, om.prob)
		requireLayoutRoundTrip(t, label+" co-schedule", m, om)

		opts := ColGenOptions{}
		for n := rng.Intn(3); n > 0; n-- {
			opts.SeedMachines = append(opts.SeedMachines, rng.Intn(len(in.Machines)+2)-1)
		}
		ocg := newOracleColGen(withFake(in), opts)
		cg, err := NewOnlineColGen(in.clone(), opts)
		if err != nil {
			t.Fatalf("%s: master: %v", label, err)
		}
		for round := 0; ; round++ {
			rl := fmt.Sprintf("%s master round %d", label, round)
			requireSameLP(t, rl, cg.m.prob, ocg.m.prob)
			requireLayoutRoundTrip(t, rl, cg.m, ocg.m)
			sol, err := cg.m.prob.Solve(lp.Options{})
			if err != nil {
				t.Fatalf("%s: %v", rl, err)
			}
			n, on := cg.Price(cg.m.prob, sol), ocg.Price(ocg.m.prob, sol)
			if n != on {
				t.Fatalf("%s: priced in %d machines, oracle %d", rl, n, on)
			}
			if n == 0 {
				break
			}
			pricedIn += n
		}
	}
	if pricedIn < 100 {
		t.Errorf("pricing materialized %d machines over all seeds: the master was barely exercised", pricedIn)
	}
}
