package core

import (
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/workload"
)

// filterInstance aggregates a 3-node, 2-group cluster: za/t holds nodes
// 0 and 1 (2 ECU each), zb/u holds node 2.
func filterInstance(t *testing.T) *Instance {
	t.Helper()
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "t", 2, 2, cost.Millicents(1), 1e6)
	b.AddNode("za", "t", 2, 2, cost.Millicents(1), 1e6)
	b.AddNode("zb", "u", 4, 2, cost.Millicents(2), 1e6)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 10}
	wb.AddInputJob("j", "u", arch, 128, 0, 0)
	w := wb.Build()
	in, err := NewInstance(c, w.Jobs, w.Objects, w.Placement(), InstanceOptions{Aggregate: true, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func machineIdx(t *testing.T, in *Instance, name string) int {
	t.Helper()
	for l, m := range in.Machines {
		if m.Name == name {
			return l
		}
	}
	t.Fatalf("no machine unit %q", name)
	return -1
}

func TestFilterMachinesNoChange(t *testing.T) {
	in := filterInstance(t)
	if in.FilterMachines(func(cluster.NodeID) bool { return true }) {
		t.Error("reported a change with every node alive")
	}
	if len(in.Machines) != 2 {
		t.Errorf("machines = %d, want 2", len(in.Machines))
	}
}

func TestFilterMachinesScalesPartialUnit(t *testing.T) {
	in := filterInstance(t)
	if !in.FilterMachines(func(n cluster.NodeID) bool { return n != 1 }) {
		t.Fatal("losing a node reported no change")
	}
	l := machineIdx(t, in, "za/t")
	if got := in.Machines[l].ECU; got != 2 {
		t.Errorf("za/t ECU = %g after losing 1 of 2 nodes, want 2", got)
	}
	if len(in.Machines[l].Nodes) != 1 || in.Machines[l].Nodes[0] != 0 {
		t.Errorf("za/t nodes = %v, want [0]", in.Machines[l].Nodes)
	}
	if len(in.Machines) != 2 {
		t.Errorf("machines = %d, want 2 (unit shrinks, not drops)", len(in.Machines))
	}
	if err := in.Validate(); err != nil {
		t.Errorf("filtered instance invalid: %v", err)
	}
}

func TestFilterMachinesDropsEmptyUnit(t *testing.T) {
	in := filterInstance(t)
	zbStores := -1
	for m, su := range in.Stores {
		if su.Name == "zb/u" {
			zbStores = m
		}
	}
	if !in.FilterMachines(func(n cluster.NodeID) bool { return n != 2 }) {
		t.Fatal("losing a whole unit reported no change")
	}
	if len(in.Machines) != 1 || in.Machines[0].Name != "za/t" {
		t.Fatalf("machines = %+v, want only za/t", in.Machines)
	}
	if len(in.MSPerMBMC) != 1 || len(in.BandwidthMBps) != 1 {
		t.Errorf("matrix rows not compacted: MS=%d B=%d", len(in.MSPerMBMC), len(in.BandwidthMBps))
	}
	// Store units survive their node — only the CoMachine link goes stale.
	if len(in.Stores) != 2 {
		t.Errorf("stores = %d, want 2 (data outlives compute)", len(in.Stores))
	}
	if in.CoMachine[zbStores] != -1 {
		t.Errorf("zb store co-machine = %d, want -1 after its node died", in.CoMachine[zbStores])
	}
	if err := in.Validate(); err != nil {
		t.Errorf("filtered instance invalid: %v", err)
	}
}

func TestFilterMachinesKeepsFakeNode(t *testing.T) {
	in := filterInstance(t)
	in.AddFakeNode(FakeNodePriceMC)
	in.FilterMachines(func(cluster.NodeID) bool { return false }) // total outage
	if len(in.Machines) != 1 || !in.Machines[0].Fake {
		t.Fatalf("machines = %+v, want only the fake overflow node", in.Machines)
	}
}

// TestNoRealMachine plans a total outage with one input job and one without:
// the fixed-placement plans have no machine to pick and say so, and column
// generation parks every job on the fake node.
func TestNoRealMachine(t *testing.T) {
	in := filterInstance(t)
	in.Jobs = append([]JobItem{{Name: "cpu-only", Data: NoData, CPUSec: 30, NumTasks: 2}}, in.Jobs...)
	in.AddFakeNode(FakeNodePriceMC)
	in.FilterMachines(func(cluster.NodeID) bool { return false })
	xd := PlacementFractions(in)
	// Both job sets: LocalOnlyPlan rejects the input job's remote read
	// before it reaches the job without input.
	for _, jobs := range [][]JobItem{in.Jobs, in.Jobs[:1]} {
		sub := *in
		sub.Jobs = jobs
		if _, err := GreedyPlan(&sub, xd); err == nil {
			t.Errorf("%d jobs: GreedyPlan planned a total outage", len(jobs))
		}
		if _, err := LocalOnlyPlan(&sub, xd); err == nil {
			t.Errorf("%d jobs: LocalOnlyPlan planned a total outage", len(jobs))
		}
	}
	plan, _, err := SolveOnlineColGen(in, ColGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range plan.DeferredFrac {
		if f < 1-1e-9 {
			t.Errorf("job %d: %g deferred to F, want all of it", k, f)
		}
	}
}
