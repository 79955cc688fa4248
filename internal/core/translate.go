package core

import "lips/internal/lp"

// machineMap matches old machine units to new ones by Name (the fake node
// by its Fake flag), returning old index → new index or -1 for units that
// left. New machines with no old counterpart (a recovery) need no entry:
// their columns enter the translated basis at their default bounds.
func machineMap(oldIn, newIn *Instance) []int {
	byName := make(map[string]int, len(newIn.Machines))
	fake := -1
	for l, m := range newIn.Machines {
		if m.Fake {
			fake = l
			continue
		}
		byName[m.Name] = l
	}
	mm := make([]int, len(oldIn.Machines))
	for l, m := range oldIn.Machines {
		if m.Fake {
			mm[l] = fake
			continue
		}
		if nl, ok := byName[m.Name]; ok {
			mm[l] = nl
		} else {
			mm[l] = -1
		}
	}
	return mm
}

// sameEpochShape reports whether two instances agree on everything except
// machines: same jobs (demand and data binding), data items (size and
// origin set) and stores — the precondition for translating a basis
// across machine churn only.
func sameEpochShape(oldIn, newIn *Instance) bool {
	if len(oldIn.Jobs) != len(newIn.Jobs) || len(oldIn.Data) != len(newIn.Data) ||
		len(oldIn.Stores) != len(newIn.Stores) {
		return false
	}
	for k := range oldIn.Jobs {
		if oldIn.Jobs[k].Data != newIn.Jobs[k].Data {
			return false
		}
	}
	for i := range oldIn.Data {
		if len(oldIn.Data[i].Origin) != len(newIn.Data[i].Origin) {
			return false
		}
		for o := range oldIn.Data[i].Origin {
			if _, ok := newIn.Data[i].Origin[o]; !ok {
				return false
			}
		}
	}
	return true
}

// TranslateOnlineBasis carries an optimal basis of oldIn's online model
// (BuildOnlineModel layout) onto newIn's, where the two instances differ
// only in their machine units — the epoch-to-epoch churn FilterMachines
// produces. Machines are matched by name; columns and rows of departed
// machines are dropped (lp.TranslateBasis repairs their rows with slacks)
// and a returning machine's columns enter at their default bounds. Returns
// nil when the instances' job/data/store shape diverged or a column
// collision makes the basis unrepairable — the caller starts cold, exactly
// as it would have without a basis.
func TranslateOnlineBasis(b *lp.Basis, oldIn, newIn *Instance) *lp.Basis {
	if b == nil || !sameEpochShape(oldIn, newIn) {
		return nil
	}
	mm := machineMap(oldIn, newIn)
	oldLy, newLy := newLayout(oldIn, Online, false, nil), newLayout(newIn, Online, false, nil)
	if b.NumVars != oldLy.cols || b.NumCons != oldLy.rows {
		return nil
	}
	// Everything not indexed by a machine — the placement flows and the
	// job, place, cap and exist rows — keeps its formula across the two
	// layouts (sameEpochShape), so re-encoding maps it to itself; x^t
	// columns, cpu rows and xfer rows follow their machine or drop with it.
	varMap := make([]int, oldLy.cols)
	for v := 0; v < oldLy.xt0(); v++ {
		varMap[v] = v
	}
	oldLy.eachXT(func(v lp.Var, k, l, store int) {
		varMap[v] = -1
		if nl := mm[l]; nl >= 0 {
			// Online, a column's place among its job's is its store; a
			// job without input (noStore) has the one.
			varMap[v] = int(newLy.xtFirst(k, nl)) + max(store, 0)
		}
	})
	conMap := make([]int, oldLy.rows)
	for r := 0; r < oldLy.cpuRow0; r++ {
		conMap[r] = r
	}
	for l := range oldIn.Machines {
		if !oldLy.isFake(l) {
			conMap[oldLy.cpuRow(l)] = -1
			if nl := mm[l]; nl >= 0 {
				conMap[oldLy.cpuRow(l)] = int(newLy.cpuRow(nl))
			}
		}
	}
	for k := range oldIn.Jobs {
		if !oldLy.hasData(k) {
			continue
		}
		for store := range oldIn.Stores {
			conMap[oldLy.existRow(k, store)] = int(newLy.existRow(k, store))
		}
		for l := range oldIn.Machines {
			if !oldLy.isFake(l) {
				conMap[oldLy.xferRow(k, l)] = -1
				if nl := mm[l]; nl >= 0 {
					conMap[oldLy.xferRow(k, l)] = int(newLy.xferRow(k, nl))
				}
			}
		}
	}
	return lp.TranslateBasis(b, varMap, conMap, newLy.cols, newLy.rows)
}
