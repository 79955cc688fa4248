package core

import "fmt"

// GreedyPlan is the paper's §IV greedy reference: for each job and each
// portion of its data on store m, pick the machine minimising
// JM_kl + MS_lm·Size — ignoring machine capacity. With abundant capacity
// this matches the LP optimum of the simple task model; under contention
// it can be arbitrarily bad, which is the paper's argument for the LP.
// NewOnlineColGen seeds its restricted master with this plan's machines,
// so the first pricing round sees real prices. xd[i][m] is the fixed
// fractional placement.
func GreedyPlan(in *Instance, xd [][]float64) (*Plan, error) {
	if err := checkFixedPlan(in, xd); err != nil {
		return nil, err
	}
	p := &Plan{In: in, Kind: SimpleTask}
	p.XT = make([]map[[2]int]float64, len(in.Jobs))
	for k, job := range in.Jobs {
		p.XT[k] = make(map[[2]int]float64)
		if job.Data == NoData {
			p.XT[k][[2]int{cheapestMachine(in, job, noStore), noStore}] = 1
			continue
		}
		for m, frac := range xd[job.Data] {
			if frac <= 1e-12 {
				continue
			}
			p.XT[k][[2]int{cheapestMachine(in, job, m), m}] += frac
		}
		normalizeFracs(p.XT[k])
	}
	p.computeCosts()
	return p, nil
}

// LocalOnlyPlan is the Fig. 5 baseline: every data portion is processed on
// the machine co-located with its store — 100% data locality, the
// behaviour of an ideal delay scheduler (and of the default Hadoop
// scheduler after the random block shuffle). Jobs without input run on
// the cheapest machine, as any scheduler would place them.
func LocalOnlyPlan(in *Instance, xd [][]float64) (*Plan, error) {
	if err := checkFixedPlan(in, xd); err != nil {
		return nil, err
	}
	if in.CoMachine == nil {
		return nil, fmt.Errorf("core: instance has no store→machine co-location map")
	}
	p := &Plan{In: in, Kind: SimpleTask}
	p.XT = make([]map[[2]int]float64, len(in.Jobs))
	for k, job := range in.Jobs {
		p.XT[k] = make(map[[2]int]float64)
		if job.Data == NoData {
			p.XT[k][[2]int{cheapestMachine(in, job, noStore), noStore}] = 1
			continue
		}
		for m, frac := range xd[job.Data] {
			if frac <= 1e-12 {
				continue
			}
			l := in.CoMachine[m]
			if l < 0 {
				return nil, fmt.Errorf("core: data %q placed on remote store %d with no co-located machine", in.Data[job.Data].Name, m)
			}
			p.XT[k][[2]int{l, m}] += frac
		}
		normalizeFracs(p.XT[k])
	}
	p.computeCosts()
	return p, nil
}

// checkFixedPlan vets what both fixed-placement plans need: a valid
// instance, one xd row per data item, and a real machine to pick — with
// every unit filtered out (all nodes down) only the fake node is left.
func checkFixedPlan(in *Instance, xd [][]float64) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if len(xd) != len(in.Data) {
		return fmt.Errorf("core: xd has %d rows for %d data items", len(xd), len(in.Data))
	}
	for _, mach := range in.Machines {
		if !mach.Fake {
			return nil
		}
	}
	return fmt.Errorf("core: no real machine to plan on")
}

// cheapestMachine is the real machine minimising JM_kl + MS_lm·Size for job
// reading store m (JM_kl alone for store noStore), the first on ties.
func cheapestMachine(in *Instance, job JobItem, m int) int {
	best, bestMC := -1, 0.0
	for l, mach := range in.Machines {
		if mach.Fake {
			continue
		}
		mc := job.CPUSec * mach.PerECUSecMC
		if m != noStore {
			mc += in.MSPerMBMC[l][m] * in.Data[job.Data].SizeMB
		}
		if best == -1 || mc < bestMC {
			best, bestMC = l, mc
		}
	}
	return best
}

// PlacementFractions converts each data item's Origin mix into the dense
// xd matrix the fixed-placement plans consume.
func PlacementFractions(in *Instance) [][]float64 {
	xd := make([][]float64, len(in.Data))
	for i, d := range in.Data {
		xd[i] = make([]float64, len(in.Stores))
		for m, f := range d.Origin {
			xd[i][m] = f
		}
	}
	return xd
}
