package core

import (
	"fmt"
	"math"
	"sort"

	"lips/internal/lp"
)

// Kind identifies which of the paper's LP formulations a Model uses. The
// paper's third, the simple task model of Fig. 2, is CoSchedule with the
// placement x^d fixed; it is never solved on its own, so it has no Kind.
type Kind int

// Model kinds.
const (
	// CoSchedule is the offline cost-efficient co-scheduling model
	// (Fig. 3): data placement fractions and task fractions are the
	// variables.
	CoSchedule Kind = iota
	// Online is the epoch-based online model (Fig. 4): CoSchedule with
	// the horizon set to the epoch length, the per-(job, machine)
	// transfer-time constraint (21), and a fake overflow node F.
	Online
)

// String names the model kind.
func (k Kind) String() string {
	switch k {
	case CoSchedule:
		return "co-schedule"
	case Online:
		return "online"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

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

	prob *lp.Problem
	lay  layout // where every column and row of prob sits
}

// newModel pairs an empty LP with its layout, which also names it.
func newModel(in *Instance, kind Kind, name string, master bool) *Model {
	m := &Model{In: in, Kind: kind, prob: lp.New(name), lay: newLayout(in, kind, master)}
	m.prob.SetNamer(&m.lay)
	return m
}

// reserve makes room for everything the layout holds that the LP does not
// yet: all of it on the direct path, a newly opened unit in the master.
// Four entries a column is the x^t bound; a flow column with more readers
// than that only starts another arena chunk.
func (m *Model) reserve() {
	cols := m.lay.cols - m.prob.NumVars()
	m.prob.Grow(cols, m.lay.rows-m.prob.NumCons(), 4*cols)
}

// Problem exposes the underlying LP (e.g. for diagnostics or encoding).
func (m *Model) Problem() *lp.Problem { return m.prob }

// NumVars returns the LP's variable count.
func (m *Model) NumVars() int { return m.prob.NumVars() }

// NumCons returns the LP's constraint count.
func (m *Model) NumCons() int { return m.prob.NumCons() }

// BuildCoScheduleModel builds the Fig. 3 model: joint data placement and
// task scheduling over the instance's horizon (node uptime).
func BuildCoScheduleModel(in *Instance) (*Model, error) {
	return buildCo(in, CoSchedule)
}

// BuildOnlineModel builds the Fig. 4 model for one epoch: the instance's
// Horizon must be the epoch length. A fake overflow node is appended
// automatically if the instance does not already have one.
func BuildOnlineModel(in *Instance) (*Model, error) {
	ensureFakeNode(in)
	return buildCo(in, Online)
}

// ensureFakeNode appends the fake overflow node at FakeNodePriceMC unless
// the instance already has one.
func ensureFakeNode(in *Instance) {
	for _, mach := range in.Machines {
		if mach.Fake {
			return
		}
	}
	in.AddFakeNode(FakeNodePriceMC)
}

func buildCo(in *Instance, kind Kind) (*Model, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	m := newModel(in, kind, "lips-"+kind.String(), false)
	ly, prob := &m.lay, m.prob
	m.reserve()

	// Every row, in layout order, before the first column.
	m.addJobRows()
	m.addPlacementRows()
	m.addCPURows()
	m.addExistRows()
	// Constraint (21), online only: per (job, machine) transfer time must
	// fit in the epoch. The fake node is exempt — work parked on F is
	// deferred, not executed.
	if kind == Online {
		for k := range in.Jobs {
			if !ly.hasData(k) {
				continue
			}
			for l := range in.Machines {
				if !ly.isFake(l) {
					prob.AddCon("", lp.LE, in.Horizon)
				}
			}
		}
	}

	m.addFlowCols()
	return m, m.addTaskCols()
}

// addJobRows declares constraint (2)/(10)/(20): every job fully scheduled.
func (m *Model) addJobRows() {
	for range m.In.Jobs {
		m.prob.AddCon("", lp.GE, 1)
	}
}

// addPlacementRows declares constraint (9)/(19), all data gets placed —
// every origin portion flows somewhere, exactly once — and (11)/(22), store
// capacity over x^d_ij = Σ_o f_ioj. The paper writes Σ_j x^d_ij ≥ 1;
// equality is required here because zero-cost self-flows would otherwise
// let x^d report more data on a store than exists, and the resulting task
// assignments would force unplanned block moves.
func (m *Model) addPlacementRows() {
	ly := &m.lay
	for i, d := range m.In.Data {
		for _, o := range ly.origins[ly.originOff[i]:ly.originOff[i+1]] {
			m.prob.AddCon("", lp.EQ, d.Origin[o])
		}
	}
	for _, s := range m.In.Stores {
		m.prob.AddCon("", lp.LE, s.CapacityMB)
	}
}

// addCPURows declares constraint (4)/(12)/(23) for every machine: CPU
// demand placed on it fits its ECU supply over the horizon. The fake node
// is exempt.
func (m *Model) addCPURows() {
	for l, mach := range m.In.Machines {
		if !mach.Fake {
			m.prob.AddCon("", lp.LE, mach.ECU*m.In.HorizonOf(l))
		}
	}
}

// addExistRows declares constraint (13)/(24): data accessed must exist on
// the store, Σ_l xt_klm − Σ_o f_iom ≤ 0.
func (m *Model) addExistRows() {
	for k := range m.In.Jobs {
		if m.lay.hasData(k) {
			for range m.In.Stores {
				m.prob.AddCon("", lp.LE, 0)
			}
		}
	}
}

// addFlowCols emits the placement flow columns with relocation cost
// (objective term (6)/(16)): f_ioj moves the item-i portion at origin o to
// store j at SS_oj per MB. Each column meets its place row, its store's
// cap row and the exist row of every job reading the item — ascending.
func (m *Model) addFlowCols() {
	in, ly := m.In, &m.lay
	var ents []lp.Entry
	var readers []int
	for i, d := range in.Data {
		readers = readers[:0]
		for k, job := range in.Jobs {
			if job.Data == i {
				readers = append(readers, k)
			}
		}
		for oi, o := range ly.origins[ly.originOff[i]:ly.originOff[i+1]] {
			for j := range in.Stores {
				ents = append(ents[:0],
					lp.Entry{Con: ly.placeRow(i, oi), Coef: 1},
					lp.Entry{Con: ly.capRow(j), Coef: d.SizeMB})
				for _, k := range readers {
					ents = append(ents, lp.Entry{Con: ly.existRow(k, j), Coef: -1})
				}
				m.prob.AddCol(0, 1, in.SSPerMBMC[o][j]*d.SizeMB, ents)
			}
		}
	}
}

// addTaskCols emits every x^t column of the direct path, job-major.
func (m *Model) addTaskCols() error {
	for k := range m.In.Jobs {
		for l := range m.In.Machines {
			if err := m.addJobOnMachine(k, l); err != nil {
				return err
			}
		}
	}
	return nil
}

// addJobOnMachine emits the x^t_{klm} columns of job k on machine l with
// their objective terms (7)+(8): execution cost JM_kl plus runtime transfer
// MS_lm·Size(D_i). A column meets its job row, its exist row (jobs with
// input), the machine's cpu row and, in the online model, the (job,
// machine) xfer row — the last two not on the fake node; cpu and exist go
// in whichever order the layout numbers them.
func (m *Model) addJobOnMachine(k, l int) error {
	in, ly := m.In, &m.lay
	job, fake := &in.Jobs[k], ly.isFake(l)
	execMC := job.CPUSec * in.Machines[l].PerECUSecMC // JM_kl
	var buf [4]lp.Entry
	ents := append(buf[:0], lp.Entry{Con: ly.jobRow(k), Coef: 1})
	if job.Data == NoData {
		if !fake {
			ents = append(ents, lp.Entry{Con: ly.cpuRow(l), Coef: job.CPUSec})
		}
		m.prob.AddCol(0, 1, execMC, ents)
		return nil
	}
	traffic := in.Data[job.Data].SizeMB * job.accessFrac()
	cpu := lp.Entry{Con: ly.cpuRow(l), Coef: job.CPUSec} // not for the fake node
	for pos := 0; pos < ly.width(k); pos++ {
		store := ly.storeAt(k, pos)
		exist := lp.Entry{Con: ly.existRow(k, pos), Coef: 1}
		switch {
		case fake:
			ents = append(ents[:1], exist)
		case cpu.Con < exist.Con:
			ents = append(ents[:1], cpu, exist)
		default:
			ents = append(ents[:1], exist, cpu)
		}
		if ly.kind == Online && !fake {
			bw := in.BandwidthMBps[l][store]
			if bw <= 0 {
				return fmt.Errorf("core: zero bandwidth between machine %d and store %d", l, store)
			}
			ents = append(ents, lp.Entry{Con: ly.xferRow(k, l), Coef: traffic / bw})
		}
		m.prob.AddCol(0, 1, execMC+in.MSPerMBMC[l][store]*traffic, ents)
	}
	return nil
}

// Solve runs the simplex and extracts a fractional Plan. A solve that
// ends without an optimum returns a *SolveError.
func (m *Model) Solve(opts lp.Options) (*Plan, error) {
	sol, err := m.prob.Solve(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, &SolveError{Kind: m.Kind, Status: sol.Status, Stats: sol.Stats, WarmStarted: sol.WarmStarted,
			Rows: m.prob.NumCons(), Cols: m.prob.NumVars()}
	}
	return m.extract(sol), nil
}

// SolveError is a solve that ended without an optimum: the final status,
// what it cost (summed over every pricing round under column generation)
// and the LP's size (under column generation, the last restricted
// master's), so a caller can account for it like one that succeeded.
type SolveError struct {
	Kind        Kind
	Status      lp.Status
	Stats       lp.Stats
	WarmStarted bool
	Rows, Cols  int
}

func (e *SolveError) Error() string {
	if e.Status == lp.Infeasible {
		return fmt.Sprintf("core: %s model infeasible", e.Kind)
	}
	return fmt.Sprintf("core: %s model: solver status %v after %d iterations", e.Kind, e.Status, e.Stats.Iters)
}

// extract converts an LP solution into a Plan.
func (m *Model) extract(sol *lp.Solution) *Plan {
	in := m.In
	p := &Plan{
		In: in, ObjectiveMC: sol.Objective,
		Rows: m.prob.NumCons(), Cols: m.prob.NumVars(), NNZ: m.prob.NumNonzeros(),
		Stats: sol.Stats, Basis: sol.Basis, WarmStarted: sol.WarmStarted,
	}
	p.XT = make([]map[[2]int]float64, len(in.Jobs))
	for k := range in.Jobs {
		p.XT[k] = make(map[[2]int]float64)
	}
	ly := &m.lay
	ly.eachXT(func(v lp.Var, k, l, store int) {
		if f := sol.Value(v); f > 1e-9 {
			p.XT[k][[2]int{l, store}] = f
		}
	})
	p.XD = make([][]float64, len(in.Data))
	p.XDFlows = make([]map[[2]int]float64, len(in.Data))
	for i := range in.Data {
		p.XD[i] = make([]float64, len(in.Stores))
		p.XDFlows[i] = make(map[[2]int]float64)
		for oi, o := range ly.origins[ly.originOff[i]:ly.originOff[i+1]] {
			for j := range in.Stores {
				f := sol.Value(ly.xd(i, oi, j))
				if f <= 1e-9 {
					continue
				}
				p.XD[i][j] += f
				p.XDFlows[i][[2]int{o, j}] += f
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
