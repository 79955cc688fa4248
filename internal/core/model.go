package core

import (
	"fmt"
	"math"
	"sort"

	"lips/internal/lp"
)

// Kind identifies which of the paper's three LP formulations a Model uses.
type Kind int

// Model kinds.
const (
	// SimpleTask is the offline simple task scheduling model (Fig. 2):
	// data placement is fixed, only task fractions are variables.
	SimpleTask Kind = iota
	// CoSchedule is the offline cost-efficient co-scheduling model
	// (Fig. 3): data placement fractions join the variable set.
	CoSchedule
	// Online is the epoch-based online model (Fig. 4): CoSchedule with
	// the horizon set to the epoch length, the per-(job, machine)
	// transfer-time constraint (21), and a fake overflow node F.
	Online
)

// String names the model kind.
func (k Kind) String() string {
	switch k {
	case SimpleTask:
		return "simple-task"
	case CoSchedule:
		return "co-schedule"
	case Online:
		return "online"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// xtKey addresses one x^t_{klm} variable. Jobs without input data have a
// single per-machine variable with store = noStore.
type xtKey struct{ k, l, m int }

const noStore = -1

// Model is a LiPS LP over an Instance, ready to solve.
//
// Data placement is modelled as a transportation problem: for every data
// item i, origin portion o and destination store j there is a flow
// variable f_ioj priced at SS_oj·Size(D_i). The paper's x^d_ij is the
// marginal Σ_o f_ioj. With a single origin (the paper's O_i) this reduces
// exactly to the paper's formulation; with fractional current placements
// (as arise mid-run) it correctly prices "keep the blocks where they are"
// at zero instead of charging the weighted-origin average.
type Model struct {
	In   *Instance
	Kind Kind

	prob   *lp.Problem
	xt     map[xtKey]lp.Var
	xdFlow map[[3]int]lp.Var // (item, origin unit, dest store) → flow
	hasXD  bool
}

// Problem exposes the underlying LP (e.g. for diagnostics or encoding).
func (m *Model) Problem() *lp.Problem { return m.prob }

// NumVars returns the LP's variable count.
func (m *Model) NumVars() int { return m.prob.NumVars() }

// NumCons returns the LP's constraint count.
func (m *Model) NumCons() int { return m.prob.NumCons() }

// BuildSimpleTaskModel builds the Fig. 2 model: task scheduling against a
// fixed fractional data placement xd, where xd[i][m] is the portion of
// data item i on store unit m (rows must sum to ≥ 1).
func BuildSimpleTaskModel(in *Instance, xd [][]float64) (*Model, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(xd) != len(in.Data) {
		return nil, fmt.Errorf("core: xd has %d rows for %d data items", len(xd), len(in.Data))
	}
	for i := range xd {
		if len(xd[i]) != len(in.Stores) {
			return nil, fmt.Errorf("core: xd row %d has %d cols for %d stores", i, len(xd[i]), len(in.Stores))
		}
	}
	m := &Model{In: in, Kind: SimpleTask, prob: lp.New("lips-simple"), xt: make(map[xtKey]lp.Var)}
	m.addTaskVars(func(i, store int) bool { return xd[i][store] > 1e-12 })
	m.addJobCoverage()
	m.addDataExistence(xd)
	m.addMachineCapacity()
	return m, nil
}

// BuildCoScheduleModel builds the Fig. 3 model: joint data placement and
// task scheduling over the instance's horizon (node uptime).
func BuildCoScheduleModel(in *Instance) (*Model, error) {
	return buildCo(in, CoSchedule)
}

// BuildOnlineModel builds the Fig. 4 model for one epoch: the instance's
// Horizon must be the epoch length. A fake overflow node is appended
// automatically if the instance does not already have one.
func BuildOnlineModel(in *Instance) (*Model, error) {
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
	return buildCo(in, Online)
}

func buildCo(in *Instance, kind Kind) (*Model, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	m := &Model{In: in, Kind: kind, prob: lp.New("lips-" + kind.String()),
		xt: make(map[xtKey]lp.Var), xdFlow: make(map[[3]int]lp.Var), hasXD: true}

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

	m.addTaskVars(func(i, store int) bool { return true })
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
// include filters (data item, store) pairs — the simple model only allows
// stores that actually hold a portion of the data.
func (m *Model) addTaskVars(include func(dataItem, store int) bool) {
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
				if !include(job.Data, store) {
					continue
				}
				transferMC := in.MSPerMBMC[l][store] * traffic
				v := m.prob.AddVar(fmt.Sprintf("xt[%d,%d,%d]", k, l, store), 0, 1, execMC+transferMC)
				m.xt[xtKey{k, l, store}] = v
			}
		}
	}
}

// addJobCoverage adds constraint (2)/(10)/(20): every job fully scheduled.
func (m *Model) addJobCoverage() {
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
func (m *Model) addMachineCapacity() {
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

// addDataExistence adds constraint (3) for the simple model, where xd is a
// fixed placement: Σ_l xt_klm ≤ xd_im.
func (m *Model) addDataExistence(xd [][]float64) {
	in := m.In
	for k, job := range in.Jobs {
		if job.Data == NoData {
			continue
		}
		for store := range in.Stores {
			hasVar := false
			for l := range in.Machines {
				if _, ok := m.xt[xtKey{k, l, store}]; ok {
					hasVar = true
					break
				}
			}
			if !hasVar {
				continue
			}
			row := m.prob.AddCon(fmt.Sprintf("exist[%d,%d]", k, store), lp.LE, xd[job.Data][store])
			for l := range in.Machines {
				if v, ok := m.xt[xtKey{k, l, store}]; ok {
					m.prob.SetCoef(row, v, 1)
				}
			}
		}
	}
}

// Solve runs the simplex and extracts a fractional Plan.
func (m *Model) Solve(opts lp.Options) (*Plan, error) {
	sol, err := m.prob.Solve(opts)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, fmt.Errorf("core: %s model infeasible", m.Kind)
	default:
		return nil, fmt.Errorf("core: %s model: solver status %v after %d iterations", m.Kind, sol.Status, sol.Iters)
	}
	return m.extract(sol), nil
}

// extract converts an LP solution into a Plan.
func (m *Model) extract(sol *lp.Solution) *Plan {
	in := m.In
	p := &Plan{
		In: in, Kind: m.Kind, ObjectiveMC: sol.Objective,
		Stats: sol.Stats, Basis: sol.Basis, WarmStarted: sol.WarmStarted,
	}
	p.XT = make([]map[[2]int]float64, len(in.Jobs))
	for k := range in.Jobs {
		p.XT[k] = make(map[[2]int]float64)
	}
	for key, v := range m.xt {
		f := sol.Value(v)
		if f <= 1e-9 {
			continue
		}
		p.XT[key.k][[2]int{key.l, key.m}] = f
	}
	if m.hasXD {
		p.XD = make([][]float64, len(in.Data))
		p.XDFlows = make([]map[[2]int]float64, len(in.Data))
		for i := range in.Data {
			p.XD[i] = make([]float64, len(in.Stores))
			p.XDFlows[i] = make(map[[2]int]float64)
			for _, o := range sortedOrigins(in.Data[i]) {
				for j := range in.Stores {
					f := sol.Value(m.xdFlow[[3]int{i, o, j}])
					if f <= 1e-9 {
						continue
					}
					p.XD[i][j] += f
					p.XDFlows[i][[2]int{o, j}] += f
				}
			}
		}
	}
	p.computeCosts()
	return p
}

// sortedOrigins returns the origin units of a data item in ascending
// order, for deterministic model construction.
func sortedOrigins(d DataItem) []int {
	out := make([]int, 0, len(d.Origin))
	for o := range d.Origin {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}

// normalizeFracs scales each job's fractions to sum exactly to 1 (the LP's
// coverage constraint is ≥ 1; at an optimum it is tight up to tolerance).
func normalizeFracs(fr map[[2]int]float64) {
	// Sum in sorted key order: float addition is not associative, so
	// summing in map-iteration order would perturb the normalized
	// fractions' low bits from run to run and flip largest-remainder
	// near-ties in Round — run-to-run nondeterminism from a fixed seed.
	sum := 0.0
	for _, k := range sortedKeys(fr) {
		sum += fr[k]
	}
	if sum <= 0 || math.Abs(sum-1) < 1e-12 {
		return
	}
	for k, f := range fr {
		fr[k] = f / sum
	}
}
