package core

import (
	"fmt"
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

	prob   *lp.Problem
	lay    layout   // where every column and row of prob sits
	parked lp.Basis // parkedBasis's storage

	ents    []lp.Entry // addFlowCols's scratch, reused by a pooled master
	readers []int
}

// build validates in and starts m's LP with everything that belongs to
// no machine: the job, place, cap and exist rows, then the placement flows
// that meet them. No machine is open yet; open adds them as units. A
// pooled master's LP, layout and parked basis are rewritten, not
// reallocated.
func (m *Model) build(in *Instance, kind Kind, name string) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if kind == Online {
		if err := checkBandwidth(in); err != nil {
			return err
		}
	}
	if m.prob == nil {
		m.prob = lp.New(name)
	} else {
		m.prob.Reset(name)
	}
	m.In, m.Kind = in, kind
	m.lay.reset(in, kind)
	m.prob.SetNamer(&m.lay)
	m.reserve()
	m.addJobRows()
	m.addPlacementRows()
	m.addExistRows()
	m.addFlowCols()
	return nil
}

// checkBandwidth refuses a zero bandwidth between a real machine and a
// store once any job reads input: every machine must be priceable before
// the first opens. The check does not depend on the job, so it runs once,
// blaming the first job that reads input.
func checkBandwidth(in *Instance) error {
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
					return fmt.Errorf("core: zero bandwidth between machine %d and store %d (job %d)", l, m, k)
				}
			}
		}
		break
	}
	return nil
}

// reserve makes room for everything the layout holds that the LP does not
// yet: the rows and flows of a new model, or the units just opened.
// Four entries a column is the x^t bound; a flow column with more readers
// than that only starts another arena chunk.
func (m *Model) reserve() {
	cols := m.lay.cols - m.prob.NumVars()
	m.prob.Grow(cols, m.lay.rows-m.prob.NumCons(), 4*cols)
}

// open makes each machine of ls that is in range and still closed the
// next unit, reserves room for the whole batch, and emits every new unit
// in turn: its cpu row (4)/(12)/(23) and, online, its xfer rows (21) —
// neither on the fake node — then its x^t columns. It returns the number
// of units opened.
func (m *Model) open(ls []int) int {
	in, ly := m.In, &m.lay
	first := len(ly.units)
	for _, l := range ls {
		if l >= 0 && l < len(ly.fake) && !ly.isOpen(l) {
			ly.openUnit(l)
		}
	}
	m.reserve()
	for _, l := range ly.units[first:] {
		if !ly.fake[l] {
			m.prob.AddCon("", lp.LE, in.Machines[l].ECU*in.HorizonOf(l))
			for k := range in.Jobs {
				if ly.kind == Online && ly.hasData(k) {
					m.prob.AddCon("", lp.LE, in.Horizon)
				}
			}
		}
		for k := range in.Jobs {
			m.addJobOnMachine(k, l)
		}
	}
	return len(ly.units) - first
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

// buildCo builds a direct model: the restricted master with every machine
// open, the fake node first and then the rest in ascending order.
func buildCo(in *Instance, kind Kind) (*Model, error) {
	m := new(Model)
	if err := m.build(in, kind, "lips-"+kind.String()); err != nil {
		return nil, err
	}
	units := make([]int, 0, len(in.Machines))
	for _, fake := range []bool{true, false} {
		for l, mach := range in.Machines {
			if mach.Fake == fake {
				units = append(units, l)
			}
		}
	}
	m.open(units)
	return m, nil
}

// parkedBasis is a starting basis for the online model at the plan that
// parks every job on the fake node F and leaves every block where it is:
// each (item, origin) place row has its self-flow xd[i,o,o] basic, a job
// with input has its F column at each origin store basic in that store's
// exist row (at Origin[o]), a job without input has its F column basic in
// its job row, and every other row has its slack basic. Taken place rows
// first, then those exist and job rows, then the slacks, the basis matrix
// is triangular with a unit diagonal, so it always factorizes. The plan
// meets every row unless a store already holds at least its capacity
// (exactly full, the simplex's anti-degeneracy perturbation of the place
// rows pushes it over); the solver then rejects the basis and starts
// cold. Nil when F is not open. The basis lives in m and is rewritten by
// the next call.
func (m *Model) parkedBasis() *lp.Basis {
	in, ly := m.In, &m.lay
	f := -1
	for _, l := range ly.units {
		if ly.fake[l] {
			f = l
		}
	}
	if f < 0 {
		return nil
	}
	nv, nc := m.prob.NumVars(), m.prob.NumCons()
	// Every nonbasic column rests at its lower bound (a GE row's slack,
	// bounded above only, at its upper bound 0).
	b := &m.parked
	*b = lp.Basis{NumVars: nv, NumCons: nc, RowCol: resize(b.RowCol, nc), ColStat: resize(b.ColStat, nv+nc)}
	clear(b.ColStat)
	for i := range b.RowCol {
		b.RowCol[i] = int32(nv + i)
	}
	for i := range in.Data {
		for oi, o := range ly.origins[ly.originOff[i]:ly.originOff[i+1]] {
			b.RowCol[ly.placeRow(i, oi)] = int32(ly.xd(i, oi, o))
		}
	}
	for k, job := range in.Jobs {
		if job.Data == NoData {
			b.RowCol[ly.jobRow(k)] = int32(ly.xtFirst(k, f))
			continue
		}
		i := job.Data
		for _, o := range ly.origins[ly.originOff[i]:ly.originOff[i+1]] {
			b.RowCol[ly.existRow(k, o)] = int32(ly.xtFirst(k, f) + lp.Var(o))
		}
	}
	return b
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
	ents, readers := m.ents, m.readers
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
	m.ents, m.readers = ents, readers
}

// addJobOnMachine emits the x^t_{klm} columns of job k on machine l with
// their objective terms (7)+(8): execution cost JM_kl plus runtime transfer
// MS_lm·Size(D_i). A column meets its job row, its exist row (jobs with
// input), the machine's cpu row and, in the online model, the (job,
// machine) xfer row — the last two not on the fake node.
func (m *Model) addJobOnMachine(k, l int) {
	in, ly := m.In, &m.lay
	job, fake := &in.Jobs[k], ly.fake[l]
	execMC := job.CPUSec * in.Machines[l].PerECUSecMC    // JM_kl
	cpu := lp.Entry{Con: ly.cpuRow(l), Coef: job.CPUSec} // not for the fake node
	var buf [4]lp.Entry
	ents := append(buf[:0], lp.Entry{Con: ly.jobRow(k), Coef: 1})
	if job.Data == NoData {
		if !fake {
			ents = append(ents, cpu)
		}
		m.prob.AddCol(0, 1, execMC, ents)
		return
	}
	traffic := in.Data[job.Data].SizeMB * job.accessFrac()
	for pos := 0; pos < ly.width(k); pos++ {
		store := ly.storeAt(k, pos)
		ents = append(ents[:1], lp.Entry{Con: ly.existRow(k, pos), Coef: 1})
		if !fake {
			ents = append(ents, cpu)
			if ly.kind == Online {
				ents = append(ents, lp.Entry{Con: ly.xferRow(k, l), Coef: traffic / in.BandwidthMBps[l][store]})
			}
		}
		m.prob.AddCol(0, 1, execMC+in.MSPerMBMC[l][store]*traffic, ents)
	}
}

// Solve runs the simplex and extracts a fractional Plan. A solve that
// ends without an optimum returns a *SolveError.
func (m *Model) Solve(opts lp.Options) (*Plan, error) {
	sol, err := m.prob.Solve(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, &SolveError{Kind: m.Kind, Status: sol.Status, Stats: sol.Stats,
			Rows: m.prob.NumCons(), Cols: m.prob.NumVars()}
	}
	return m.extract(sol), nil
}

// SolveError is a solve that ended without an optimum: the final status,
// what it cost (summed over every pricing round under column generation)
// and the LP's size (under column generation, the last restricted
// master's), so a caller can account for it like one that succeeded.
type SolveError struct {
	Kind       Kind
	Status     lp.Status
	Stats      lp.Stats
	Rows, Cols int
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
		Stats: sol.Stats, Basis: sol.Basis,
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

// normalizeFracs scales a job's fractions to sum exactly to 1, as Round
// scales them: summed in sorted key order, since float addition is not
// associative and a sum in map-iteration order would perturb the
// normalized fractions' low bits from run to run.
func normalizeFracs(fr map[[2]int]float64) {
	keys := sortedKeys(nil, fr)
	fracs := make([]float64, len(keys))
	for i, k := range keys {
		fracs[i] = fr[k]
	}
	normalizeSlice(fracs)
	for i, k := range keys {
		fr[k] = fracs[i]
	}
}
