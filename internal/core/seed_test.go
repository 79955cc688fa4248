package core

import (
	"slices"
	"testing"

	"lips/internal/cluster"
)

// GreedyPlan is the paper's §IV greedy reference: for each job and each
// portion of its data on store m, pick the machine minimising
// JM_kl + MS_lm·Size — ignoring machine capacity. With abundant capacity
// this is the optimum of the paper's simple task model (Fig. 2, Fig. 3
// with x^d fixed); under contention it can be arbitrarily bad, which is
// the paper's argument for the LP.
// A new restricted master is seeded with this plan's machines under the
// placement as it stands, which greedySeed finds without building the
// plan (TestGreedySeedMatchesPlan). xd[i][m] is the fixed fractional
// placement.
func GreedyPlan(in *Instance, xd [][]float64) (*Plan, error) {
	if err := checkFixedPlan(in, xd); err != nil {
		return nil, err
	}
	p := &Plan{In: in}
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

// seedOracle is the order a master opens its seeds in, found the way it
// once found them: the fake node, the hints, then the machines of the
// paper's §IV greedy plan (GreedyPlan over the placement as it stands),
// ascending — each machine once, and only in range. A total outage has no
// greedy plan, and F and the hints alone seed.
func seedOracle(in *Instance, hints []int) []int {
	var order []int
	add := func(l int) {
		if l >= 0 && l < len(in.Machines) && !slices.Contains(order, l) {
			order = append(order, l)
		}
	}
	for l, mach := range in.Machines {
		if mach.Fake {
			add(l)
		}
	}
	for _, l := range hints {
		add(l)
	}
	if greedy, err := GreedyPlan(in, PlacementFractions(in)); err == nil {
		for _, l := range greedy.HotMachines() {
			add(l)
		}
	}
	return order
}

// TestGreedySeedMatchesPlan holds the units a new master opens, in their
// order, to seedOracle on masterCorpus (TestModelOracle's 150 random
// instances, whose hints run out of range, and the stream-10k-hetero
// epoch, whole and with nodes down) and on a total outage, where
// greedySeed finds no machine and F alone seeds.
func TestGreedySeedMatchesPlan(t *testing.T) {
	check := func(name string, in *Instance, opts ColGenOptions) []int {
		t.Helper()
		cg, err := NewOnlineColGen(in, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer cg.Release()
		got, want := slices.Clone(cg.m.lay.units), seedOracle(in, opts.SeedMachines)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: the master opened %v, want %v", name, got, want)
		}
		return got
	}
	for _, c := range masterCorpus(t) {
		check(c.name, c.build(), c.opts)
	}

	in := filterInstance(t)
	in.Jobs = append([]JobItem{{Name: "cpu-only", Data: NoData, CPUSec: 30, NumTasks: 2}}, in.Jobs...)
	in.AddFakeNode(FakeNodePriceMC)
	in.FilterMachines(func(cluster.NodeID) bool { return false })
	if got := greedySeed(in, nil); len(got) != 0 {
		t.Fatalf("total outage: greedy machines %v, want none", got)
	}
	if got := check("total outage", in, ColGenOptions{SeedMachines: []int{-1, 0, 1}}); !slices.Equal(got, []int{0}) {
		t.Fatalf("total outage: the master opened %v, want F alone", got)
	}
}
