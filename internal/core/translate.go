package core

import "lips/internal/lp"

// olKey addresses one variable or constraint of the online model's
// deterministic layout (see onlineVarKeys / onlineConKeys).
type olKey struct {
	kind byte
	a, b int
}

// onlineVarKeys enumerates the variables of buildCo's layout in
// construction order: placement flows xd[i,o,j] (data items ascending,
// origins sorted, stores ascending), then task fractions xt[k,l,m] (jobs
// ascending, machines ascending, stores ascending; noStore for jobs
// without input). Machine indices are encoded in b, store/origin context
// packed via the key fields.
func onlineVarKeys(in *Instance) []olKey {
	var keys []olKey
	for i, d := range in.Data {
		for _, o := range sortedOrigins(d) {
			for j := range in.Stores {
				keys = append(keys, olKey{kind: 0, a: i*len(in.Stores) + j, b: o})
			}
		}
	}
	for k, job := range in.Jobs {
		for l := range in.Machines {
			if job.Data == NoData {
				keys = append(keys, olKey{kind: 1, a: k*(len(in.Stores)+1) + len(in.Stores), b: l})
				continue
			}
			for store := range in.Stores {
				keys = append(keys, olKey{kind: 1, a: k*(len(in.Stores)+1) + store, b: l})
			}
		}
	}
	return keys
}

// onlineConKeys enumerates buildCo's constraint rows in construction
// order: job coverage, placement, store capacity, machine capacity
// (non-fake machines), data existence, and (online) transfer-time rows.
func onlineConKeys(in *Instance) []olKey {
	var keys []olKey
	for k := range in.Jobs {
		keys = append(keys, olKey{kind: 2, a: k})
	}
	for i, d := range in.Data {
		for _, o := range sortedOrigins(d) {
			keys = append(keys, olKey{kind: 3, a: i, b: o})
		}
	}
	for j := range in.Stores {
		keys = append(keys, olKey{kind: 4, a: j})
	}
	for l, mach := range in.Machines {
		if !mach.Fake {
			keys = append(keys, olKey{kind: 5, b: l})
		}
	}
	for k, job := range in.Jobs {
		if job.Data == NoData {
			continue
		}
		for store := range in.Stores {
			keys = append(keys, olKey{kind: 6, a: k*len(in.Stores) + store})
		}
	}
	for k, job := range in.Jobs {
		if job.Data == NoData {
			continue
		}
		for l, mach := range in.Machines {
			if !mach.Fake {
				keys = append(keys, olKey{kind: 7, a: k, b: l})
			}
		}
	}
	return keys
}

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
// collision makes the basis unrepairable — the caller cold-starts, exactly
// as it would have without a basis.
func TranslateOnlineBasis(b *lp.Basis, oldIn, newIn *Instance) *lp.Basis {
	if b == nil || !sameEpochShape(oldIn, newIn) {
		return nil
	}
	mm := machineMap(oldIn, newIn)
	oldVars, oldCons := onlineVarKeys(oldIn), onlineConKeys(oldIn)
	if b.NumVars != len(oldVars) || b.NumCons != len(oldCons) {
		return nil
	}
	newVars, newCons := onlineVarKeys(newIn), onlineConKeys(newIn)
	varIdx := make(map[olKey]int, len(newVars))
	for idx, key := range newVars {
		varIdx[key] = idx
	}
	conIdx := make(map[olKey]int, len(newCons))
	for idx, key := range newCons {
		conIdx[key] = idx
	}
	remap := func(key olKey) (olKey, bool) {
		switch key.kind {
		case 1, 5, 7: // machine-indexed: xt columns, cpu and xfer rows
			nl := mm[key.b]
			if nl < 0 {
				return olKey{}, false
			}
			key.b = nl
		}
		return key, true
	}
	varMap := make([]int, len(oldVars))
	for idx, key := range oldVars {
		varMap[idx] = -1
		if nk, ok := remap(key); ok {
			if nidx, ok := varIdx[nk]; ok {
				varMap[idx] = nidx
			}
		}
	}
	conMap := make([]int, len(oldCons))
	for idx, key := range oldCons {
		conMap[idx] = -1
		if nk, ok := remap(key); ok {
			if nidx, ok := conIdx[nk]; ok {
				conMap[idx] = nidx
			}
		}
	}
	return lp.TranslateBasis(b, varMap, conMap, len(newVars), len(newCons))
}
