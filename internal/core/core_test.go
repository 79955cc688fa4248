package core

import (
	"math"
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/lp"
	"lips/internal/workload"
)

// twoNodeInstance builds the Fig. 1 break-even scenario: an expensive node
// A holding the data and a cheap node B one zone away. transferMC is the
// inter-zone price in millicents per MB; tcp is the job's CPU intensity in
// ECU-seconds per MB of a 64 MB input.
func twoNodeInstance(t *testing.T, tcp, transferMC float64) *Instance {
	t.Helper()
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "expensive", 1, 2, cost.Millicents(5), 100*1024)
	b.AddNode("zb", "cheap", 1, 2, cost.Millicents(1), 100*1024)
	b.SetZonePairPerGB("za", "zb", cost.Millicents(transferMC*1024))
	c := b.Build()

	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: tcp * 64}
	wb.AddInputJob("j", "u", arch, 64, 0, 0)
	w := wb.Build()

	in, err := NewInstance(c, w.Jobs, w.Objects, w.Placement(), InstanceOptions{Horizon: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func solvePlan(t *testing.T, m *Model) *Plan {
	t.Helper()
	p, err := m.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBreakEvenMoveData(t *testing.T) {
	// tcp=1, transfer=2 mc/MB: moving to the cheap node wins.
	// Stay: 64·1·5 = 320 mc. Move: 64·1·1 + 64·2 = 192 mc.
	in := twoNodeInstance(t, 1, 2)
	m, err := BuildCoScheduleModel(in)
	if err != nil {
		t.Fatal(err)
	}
	p := solvePlan(t, m)
	if math.Abs(p.TotalMC()-192) > 1 {
		t.Errorf("TotalMC = %g, want 192 (move to cheap node)", p.TotalMC())
	}
	if p.ExecMC > 65 {
		t.Errorf("ExecMC = %g: job did not move to the cheap node", p.ExecMC)
	}
}

func TestBreakEvenStayLocal(t *testing.T) {
	// tcp=1, transfer=10 mc/MB: staying on the expensive node wins.
	// Stay: 320 mc. Move: 64 + 640 = 704 mc.
	in := twoNodeInstance(t, 1, 10)
	m, err := BuildCoScheduleModel(in)
	if err != nil {
		t.Fatal(err)
	}
	p := solvePlan(t, m)
	if math.Abs(p.TotalMC()-320) > 1 {
		t.Errorf("TotalMC = %g, want 320 (stay local)", p.TotalMC())
	}
	if p.TransferMC+p.PlacementMC > 1 {
		t.Errorf("transfer %g + placement %g should be ~0", p.TransferMC, p.PlacementMC)
	}
}

func TestBreakEvenExact(t *testing.T) {
	// At t = 4c both choices cost the same (Fig. 1's break-even point):
	// 64c·5 = 64c·1 + 64·4c. Any optimum must cost 320c.
	in := twoNodeInstance(t, 1, 4)
	m, err := BuildCoScheduleModel(in)
	if err != nil {
		t.Fatal(err)
	}
	p := solvePlan(t, m)
	if math.Abs(p.TotalMC()-320) > 1 {
		t.Errorf("TotalMC = %g, want 320 at break-even", p.TotalMC())
	}
}

func TestSimpleTaskMatchesGreedyWithAbundantCapacity(t *testing.T) {
	// Paper §IV: with sufficient capacity the greedy algorithm is
	// optimal, so the LP must agree with it.
	in := twoNodeInstance(t, 2, 3)
	xd := PlacementFractions(in)
	m, err := BuildSimpleTaskModel(in, xd)
	if err != nil {
		t.Fatal(err)
	}
	lpPlan := solvePlan(t, m)
	greedy, err := GreedyPlan(in, xd)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lpPlan.TotalMC()-greedy.TotalMC()) > 1e-6*(1+greedy.TotalMC()) {
		t.Errorf("LP %g != greedy %g with abundant capacity", lpPlan.TotalMC(), greedy.TotalMC())
	}
}

func TestSimpleTaskBeatsGreedyUnderContention(t *testing.T) {
	// Two jobs, but the cheap node can only hold one within the horizon.
	// Greedy sends both to the cheap node (infeasible in reality); the
	// LP respects capacity and splits.
	b := cluster.NewBuilder("za")
	b.AddNode("za", "cheap", 1, 2, cost.Millicents(1), 100*1024)
	b.AddNode("za", "costly", 1, 2, cost.Millicents(5), 100*1024)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	wb.AddInputJob("j1", "u", arch, 64, 0, 0)
	wb.AddInputJob("j2", "u", arch, 64, 1, 0)
	w := wb.Build()
	// Each job needs 64 ECU-sec; horizon admits exactly one job per node.
	in, err := NewInstance(c, w.Jobs, w.Objects, w.Placement(), InstanceOptions{Horizon: 64})
	if err != nil {
		t.Fatal(err)
	}
	xd := PlacementFractions(in)
	m, err := BuildSimpleTaskModel(in, xd)
	if err != nil {
		t.Fatal(err)
	}
	plan := solvePlan(t, m)
	// One job on each node: 64·1 + 64·5 = 384 mc (both stores are free
	// to read intra-zone).
	if math.Abs(plan.ExecMC-384) > 1 {
		t.Errorf("ExecMC = %g, want 384 under contention", plan.ExecMC)
	}
	// Capacity respected per machine.
	for l := range in.Machines {
		used := 0.0
		for k := range in.Jobs {
			for lm, f := range plan.XT[k] {
				if lm[0] == l {
					used += f * in.Jobs[k].CPUSec
				}
			}
		}
		if used > in.Machines[l].ECU*in.Horizon+1e-6 {
			t.Errorf("machine %d used %g > capacity %g", l, used, in.Machines[l].ECU*in.Horizon)
		}
	}
}

func TestCoScheduleNeverWorseThanSimple(t *testing.T) {
	// Extra freedom (data movement) can only reduce cost.
	for _, transfer := range []float64{0.5, 2, 8, 30} {
		in := twoNodeInstance(t, 1.5, transfer)
		xd := PlacementFractions(in)
		ms, err := BuildSimpleTaskModel(in, xd)
		if err != nil {
			t.Fatal(err)
		}
		simple := solvePlan(t, ms)
		mc, err := BuildCoScheduleModel(in)
		if err != nil {
			t.Fatal(err)
		}
		co := solvePlan(t, mc)
		if co.TotalMC() > simple.TotalMC()+1e-6*(1+simple.TotalMC()) {
			t.Errorf("transfer %g: co %g > simple %g", transfer, co.TotalMC(), simple.TotalMC())
		}
	}
}

func TestOnlineOverflowsToFakeNode(t *testing.T) {
	// Demand exceeds the epoch's capacity: the LP must stay feasible and
	// park the overflow on F.
	b := cluster.NewBuilder("za")
	b.AddNode("za", "only", 1, 2, cost.Millicents(1), 100*1024)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	wb.AddInputJob("j1", "u", arch, 128, 0, 0) // 128 ECU-sec
	wb.AddInputJob("j2", "u", arch, 128, 0, 0) // 128 ECU-sec
	w := wb.Build()
	in, err := NewInstance(c, w.Jobs, w.Objects, w.Placement(), InstanceOptions{Horizon: 128})
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildOnlineModel(in)
	if err != nil {
		t.Fatal(err)
	}
	p := solvePlan(t, m)
	deferred := 0.0
	for k := range in.Jobs {
		deferred += p.DeferredFrac[k] * in.Jobs[k].CPUSec
	}
	// 256 ECU-sec demanded, 128 available: half must defer.
	if math.Abs(deferred-128) > 1 {
		t.Errorf("deferred %g ECU-sec, want 128", deferred)
	}
	// The fake node's fictitious price must not appear in the cost.
	if p.TotalMC() > 256*1+64+1 {
		t.Errorf("TotalMC %g includes fake-node charges", p.TotalMC())
	}
}

func TestOnlineFeasibleWithoutOverflow(t *testing.T) {
	in := twoNodeInstance(t, 1, 2)
	m, err := BuildOnlineModel(in)
	if err != nil {
		t.Fatal(err)
	}
	p := solvePlan(t, m)
	for k, f := range p.DeferredFrac {
		if f > 1e-6 {
			t.Errorf("job %d deferred %g with abundant capacity", k, f)
		}
	}
	if math.Abs(p.TotalMC()-192) > 1 {
		t.Errorf("TotalMC = %g, want 192", p.TotalMC())
	}
}

func TestOnlineTransferTimeConstraint(t *testing.T) {
	// A huge input and a tiny epoch: constraint (21) must forbid pulling
	// the data cross-zone within the epoch, forcing deferral even though
	// raw CPU capacity would suffice on the remote cheap node.
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "costly", 1, 2, cost.Millicents(5), 1e6)
	b.AddNode("zb", "cheap", 100, 2, cost.Millicents(1), 1e6)
	bw := cluster.DefaultBandwidths()
	bw.InterZoneMBps = 1 // 1 MB/s across zones
	b.SetBandwidths(bw)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 0.64}
	wb.AddInputJob("big", "u", arch, 10*1024, 0, 0) // 10 GB, 102.4 ECU-sec
	w := wb.Build()
	in, err := NewInstance(c, w.Jobs, w.Objects, w.Placement(), InstanceOptions{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildOnlineModel(in)
	if err != nil {
		t.Fatal(err)
	}
	p := solvePlan(t, m)
	// Reading from store za to machine zb at 1 MB/s allows at most 100 MB
	// of the 10 GB this epoch, i.e. less than 1% of the job there. The
	// local expensive node can take ~97.6% (100 ECU-sec of 102.4).
	remoteFrac := 0.0
	for lm, f := range p.XT[0] {
		if lm[0] == 1 && lm[1] == 0 {
			remoteFrac += f
		}
	}
	if remoteFrac > 0.011 {
		t.Errorf("remote fraction %g violates the transfer-time constraint", remoteFrac)
	}
}

func TestInstanceAggregation(t *testing.T) {
	c := cluster.Paper100()
	rng := rand.New(rand.NewSource(1))
	stores := make([]cluster.StoreID, len(c.Stores))
	for i := range stores {
		stores[i] = cluster.StoreID(i)
	}
	w := workload.PaperJobSet(rng, stores)
	in, err := NewInstance(c, w.Jobs, w.Objects, w.Placement(), InstanceOptions{Aggregate: true, Horizon: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Machines) != 9 || len(in.Stores) != 9 {
		t.Fatalf("machines=%d stores=%d, want 9/9", len(in.Machines), len(in.Stores))
	}
	if got := in.TotalSupplyCPUSec(); math.Abs(got-c.TotalECU()*3600) > 1e-6 {
		t.Errorf("supply %g != cluster ECU · horizon", got)
	}
	// CoMachine must point at the machine with the same group name.
	for m, l := range in.CoMachine {
		if in.Machines[l].Name != in.Stores[m].Name {
			t.Errorf("store %d co-machine mismatch: %s vs %s", m, in.Stores[m].Name, in.Machines[l].Name)
		}
	}
	// Origins must sum to 1 per object.
	for i, d := range in.Data {
		sum := 0.0
		for _, f := range d.Origin {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("data %d origins sum to %g", i, sum)
		}
	}
}

func TestInstanceWithoutAggregation(t *testing.T) {
	c := cluster.Paper20(0.5)
	rng := rand.New(rand.NewSource(1))
	w := workload.PaperJobSet(rng, []cluster.StoreID{0, 1, 2})
	in, err := NewInstance(c, w.Jobs, w.Objects, w.Placement(), InstanceOptions{Horizon: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Machines) != 20 || len(in.Stores) != 20 {
		t.Fatalf("machines=%d stores=%d, want 20/20", len(in.Machines), len(in.Stores))
	}
	for m, l := range in.CoMachine {
		if l != m {
			t.Errorf("store %d co-machine = %d", m, l)
		}
	}
}

// TestNewInstanceRepeatable builds Fig. 5-shaped instances — aggregated
// units holding several stores each, under a shuffled placement — thirty
// times apiece and requires every build's origin mixes, and with them the
// LP's place rows, to match the first to the bit.
func TestNewInstanceRepeatable(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := cluster.Random(rng, cluster.RandomSpec{Nodes: 100, Types: 6})
		w := workload.Random(rng, c.StoreIDs(), workload.RandomSpec{TotalTasks: 1000})
		p := w.Placement()
		p.Shuffle(rng, c.StoreIDs())
		var first *Instance
		for build := 0; build < 30; build++ {
			in, err := NewInstance(c, w.Jobs, w.Objects, p, InstanceOptions{Aggregate: true, Horizon: 3600})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = in
				continue
			}
			for i, d := range in.Data {
				if len(d.Origin) != len(first.Data[i].Origin) {
					t.Fatalf("seed %d, build %d: data %d has %d origins, first build %d", seed, build, i, len(d.Origin), len(first.Data[i].Origin))
				}
				for u, f := range d.Origin {
					if g := first.Data[i].Origin[u]; math.Float64bits(f) != math.Float64bits(g) {
						t.Fatalf("seed %d, build %d: data %d's share on unit %d is %x, first build %x", seed, build, i, u, f, g)
					}
				}
			}
		}
	}
}

func TestLocalOnlyPlanIsLocal(t *testing.T) {
	in := twoNodeInstance(t, 1, 2)
	xd := PlacementFractions(in)
	p, err := LocalOnlyPlan(in, xd)
	if err != nil {
		t.Fatal(err)
	}
	if p.TransferMC > 1e-9 || p.PlacementMC > 1e-9 {
		t.Errorf("local-only plan paid for transfers: %g/%g", p.TransferMC, p.PlacementMC)
	}
	// Data sits on the expensive node: exec must cost 320.
	if math.Abs(p.ExecMC-320) > 1 {
		t.Errorf("ExecMC = %g, want 320", p.ExecMC)
	}
}

func TestModelSizes(t *testing.T) {
	in := twoNodeInstance(t, 1, 2)
	m, err := BuildCoScheduleModel(in)
	if err != nil {
		t.Fatal(err)
	}
	// 1 job × 2 machines × 2 stores xt + 1 data × 2 stores xd = 6 vars.
	if m.NumVars() != 6 {
		t.Errorf("NumVars = %d, want 6", m.NumVars())
	}
	// place(1) + job(1) + cap(2) + cpu(2) + exist(1·2) = 8 rows.
	if m.NumCons() != 8 {
		t.Errorf("NumCons = %d, want 8", m.NumCons())
	}
	// xd: place + cap + exist; xt: job + cpu + exist.
	if p := solvePlan(t, m); p.Rows != 8 || p.Cols != 6 || p.NNZ != 18 {
		t.Errorf("plan records a %d×%d LP with %d nonzeros, want 8×6 with 18", p.Rows, p.Cols, p.NNZ)
	}
}

func TestValidationErrors(t *testing.T) {
	in := twoNodeInstance(t, 1, 2)
	bad := *in
	bad.Horizon = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected horizon error")
	}
	bad2 := *in
	bad2.Jobs = append([]JobItem(nil), in.Jobs...)
	bad2.Jobs[0].Data = 99
	if err := bad2.Validate(); err == nil {
		t.Error("expected data range error")
	}
	if _, err := BuildSimpleTaskModel(in, [][]float64{}); err == nil {
		t.Error("expected xd shape error")
	}
}

func TestKindString(t *testing.T) {
	if SimpleTask.String() != "simple-task" || CoSchedule.String() != "co-schedule" || Online.String() != "online" {
		t.Error("kind strings wrong")
	}
}

func TestMachineUptimeLimitsCapacity(t *testing.T) {
	// The cheap node is leaving soon (uptime 32 s of a 1e6 horizon):
	// only half of the 64 ECU-sec job fits there, the rest must run on
	// the expensive node despite the price.
	in := twoNodeInstance(t, 1, 0.1)
	in.Machines[1].Uptime = 32 // cheap node: 1 ECU × 32 s = 32 ECU-sec
	m, err := BuildCoScheduleModel(in)
	if err != nil {
		t.Fatal(err)
	}
	p := solvePlan(t, m)
	if err := p.Validate(1e-7); err != nil {
		t.Fatal(err)
	}
	cheapFrac := 0.0
	for lm, f := range p.XT[0] {
		if lm[0] == 1 {
			cheapFrac += f
		}
	}
	if math.Abs(cheapFrac-0.5) > 1e-6 {
		t.Errorf("cheap fraction = %g, want 0.5 under the uptime cap", cheapFrac)
	}
	if got := in.TotalSupplyCPUSec(); math.Abs(got-(1e6+32)) > 1e-6 {
		t.Errorf("supply = %g", got)
	}
}
