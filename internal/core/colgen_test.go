package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/lp"
)

// synthInstance builds a synthetic online instance with machines drawn
// from classes price classes (so column generation has real buckets to
// exploit). distinct perturbs every machine into its own class — the
// regime of aggregated paper-scale instances.
func synthInstance(jobs, machines, stores, classes int, distinct bool, rng *rand.Rand) *Instance {
	in := &Instance{Horizon: 400}
	totalMB := 0.0
	for i := 0; i < jobs; i++ {
		size := 256 + rng.Float64()*1024
		totalMB += size
		in.Data = append(in.Data, DataItem{
			Name: fmt.Sprintf("d%d", i), SizeMB: size, Origin: map[int]float64{rng.Intn(stores): 1},
		})
	}
	for j := 0; j < stores; j++ {
		in.Stores = append(in.Stores, StoreUnit{Name: fmt.Sprintf("s%d", j), CapacityMB: totalMB})
		in.CoMachine = append(in.CoMachine, -1)
	}
	for k := 0; k < jobs; k++ {
		d := k
		if !distinct && rng.Intn(5) == 0 {
			// Jobs without input make the LP exactly degenerate (cost
			// depends only on CPU-seconds per machine), so the
			// vertex-sensitive byte-identical tests use all-input jobs.
			d = NoData
		}
		in.Jobs = append(in.Jobs, JobItem{
			Name: "j", Data: d, CPUSec: 200 + rng.Float64()*2000, NumTasks: 4 + rng.Intn(12),
		})
	}
	// Class-level prices, generated once so members share exact floats.
	classPrice := make([]float64, classes)
	classECU := make([]float64, classes)
	classMS := make([][]float64, classes)
	classBW := make([][]float64, classes)
	for c := 0; c < classes; c++ {
		classPrice[c] = 0.5 + rng.Float64()*4
		classECU[c] = 2 + float64(rng.Intn(6))
		classMS[c] = make([]float64, stores)
		classBW[c] = make([]float64, stores)
		for m := 0; m < stores; m++ {
			classMS[c][m] = rng.Float64() * 0.02
			classBW[c][m] = 50 + rng.Float64()*200
		}
	}
	for l := 0; l < machines; l++ {
		c := l % classes
		price, ecu := classPrice[c], classECU[c]
		ms := classMS[c]
		bw := classBW[c]
		if distinct {
			price += rng.Float64() * 0.1
			msd := make([]float64, stores)
			copy(msd, ms)
			msd[rng.Intn(stores)] += rng.Float64() * 0.001
			ms = msd
		}
		in.Machines = append(in.Machines, Machine{Name: fmt.Sprintf("m%d", l), Type: "t", ECU: ecu, PerECUSecMC: price})
		in.MSPerMBMC = append(in.MSPerMBMC, ms)
		in.BandwidthMBps = append(in.BandwidthMBps, bw)
	}
	return in
}

// clone deep-copies an instance so a test can solve the same numbers via
// two code paths (BuildOnlineModel mutates by appending the fake node).
func (in *Instance) clone() *Instance {
	out := &Instance{Horizon: in.Horizon}
	out.Jobs = append([]JobItem(nil), in.Jobs...)
	for _, d := range in.Data {
		origin := make(map[int]float64, len(d.Origin))
		for o, f := range d.Origin {
			origin[o] = f
		}
		d.Origin = origin
		out.Data = append(out.Data, d)
	}
	for _, m := range in.Machines {
		m.Nodes = append([]cluster.NodeID(nil), m.Nodes...)
		out.Machines = append(out.Machines, m)
	}
	out.Stores = append([]StoreUnit(nil), in.Stores...)
	out.CoMachine = append([]int(nil), in.CoMachine...)
	copyMat := func(src [][]float64) [][]float64 {
		dst := make([][]float64, len(src))
		for i := range src {
			dst[i] = append([]float64(nil), src[i]...)
		}
		return dst
	}
	out.MSPerMBMC = copyMat(in.MSPerMBMC)
	out.SSPerMBMC = copyMat(in.SSPerMBMC)
	out.BandwidthMBps = copyMat(in.BandwidthMBps)
	return out
}

func relDiffF(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// fillSS gives an instance a store-to-store cost matrix (synthInstance
// leaves it unset): free self-moves, cheap cross-moves.
func fillSS(in *Instance, rng *rand.Rand) {
	ns := len(in.Stores)
	in.SSPerMBMC = make([][]float64, ns)
	for a := 0; a < ns; a++ {
		in.SSPerMBMC[a] = make([]float64, ns)
		for b := 0; b < ns; b++ {
			if a != b {
				in.SSPerMBMC[a][b] = rng.Float64() * 0.01
			}
		}
	}
}

// nodedInstance is synthInstance with one concrete node behind every
// machine, so FilterMachines has something to kill.
func nodedInstance(jobs, machines, stores, classes int, rng *rand.Rand) *Instance {
	in := synthInstance(jobs, machines, stores, classes, false, rng)
	fillSS(in, rng)
	for l := range in.Machines {
		in.Machines[l].Nodes = []cluster.NodeID{cluster.NodeID(l)}
	}
	return in
}

// TestOnlineColGenMatchesFullObjective is the core differential: at
// bucketed scale, column generation must reproduce the full model's
// optimal cost to 1e-6 relative while materializing only part of the
// cluster.
func TestOnlineColGenMatchesFullObjective(t *testing.T) {
	sawPartial := false
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := synthInstance(4+rng.Intn(8), 40+rng.Intn(80), 2+rng.Intn(4), 3+rng.Intn(3), false, rng)
		fillSS(in, rng)
		full := in.clone()
		model, err := BuildOnlineModel(full)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		direct, err := model.Solve(lp.Options{})
		if err != nil {
			t.Fatalf("seed %d: direct: %v", seed, err)
		}
		cg, err := NewOnlineColGen(in, ColGenOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plan, st, err := cg.Solve(ColGenOptions{})
		if err != nil {
			t.Fatalf("seed %d: colgen: %v", seed, err)
		}
		if d := relDiffF(plan.TotalMC(), direct.TotalMC()); d > 1e-6 {
			t.Errorf("seed %d: colgen cost %g, direct %g (rel %g)", seed, plan.TotalMC(), direct.TotalMC(), d)
		}
		if st.Rounds < 1 {
			t.Errorf("seed %d: no pricing rounds", seed)
		}
		if len(cg.m.lay.units) < len(in.Machines) {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Error("colgen materialized every machine on every seed; bucketing never paid off")
	}
}

// TestOnlineColGenIntegralPlanMatchesFull pins the whole pipeline at paper
// scale (every machine its own price class, as group aggregation
// produces): the rounded integral plans of the colgen and full solves
// must be byte-identical.
func TestOnlineColGenIntegralPlanMatchesFull(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		in := synthInstance(5+rng.Intn(6), 9, 3, 9, true, rng)
		fillSS(in, rng)
		full := in.clone()
		model, err := BuildOnlineModel(full)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		direct, err := model.Solve(lp.Options{})
		if err != nil {
			t.Fatalf("seed %d: direct: %v", seed, err)
		}
		plan, _, err := SolveOnlineColGen(in, ColGenOptions{})
		if err != nil {
			t.Fatalf("seed %d: colgen: %v", seed, err)
		}
		ipDirect, ipCG := direct.Round(), plan.Round()
		if !reflect.DeepEqual(ipDirect.Assignments, ipCG.Assignments) {
			t.Errorf("seed %d: assignments diverge:\n direct %v\n colgen %v", seed, ipDirect.Assignments, ipCG.Assignments)
		}
		if !reflect.DeepEqual(ipDirect.Moves, ipCG.Moves) {
			t.Errorf("seed %d: moves diverge:\n direct %v\n colgen %v", seed, ipDirect.Moves, ipCG.Moves)
		}
		if !reflect.DeepEqual(ipDirect.Deferred, ipCG.Deferred) {
			t.Errorf("seed %d: deferred diverge: %v vs %v", seed, ipDirect.Deferred, ipCG.Deferred)
		}
	}
}

// TestColGenColdSeedOneRound gates the cold master's pricing by counts on a
// hetero-shaped instance — every unit its own price class in one of three
// zones, a dear cross-zone read, capacity to spare: seeded with the greedy
// plan's units, the first round prices nothing in. A master holding only F
// prices every unit in at its first round and needs a second.
func TestColGenColdSeedOneRound(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := synthInstance(8, 24, 3, 24, true, rng)
		fillSS(in, rng)
		in.Horizon = 1e5 // every job fits on any one unit
		for l := range in.Machines {
			for m := range in.Stores {
				if l%3 != m {
					in.MSPerMBMC[l][m] += 1
				}
			}
		}
		greedy, err := GreedyPlan(in, PlacementFractions(in))
		if err != nil {
			t.Fatal(err)
		}
		model, err := BuildOnlineModel(in.clone())
		if err != nil {
			t.Fatal(err)
		}
		direct, err := model.Solve(lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cg, err := NewOnlineColGen(in, ColGenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plan, st, err := cg.Solve(ColGenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := len(greedy.HotMachines()) + 1; st.Rounds != 1 || len(cg.m.lay.units) > want {
			t.Errorf("seed %d: %d rounds over %d of %d units, want 1 round over at most %d (greedy + F)",
				seed, st.Rounds, len(cg.m.lay.units), len(in.Machines), want)
		}
		if d := relDiffF(plan.ObjectiveMC, direct.ObjectiveMC); d > 1e-9 {
			t.Errorf("seed %d: colgen objective %g, direct %g (rel %g)", seed, plan.ObjectiveMC, direct.ObjectiveMC, d)
		}
	}
}

// TestOnlineColGenSeedHints solves, seeds a second build with the hot
// machines of the first plan, and checks the optimum is unchanged.
func TestOnlineColGenSeedHints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := synthInstance(8, 60, 3, 4, false, rng)
	fillSS(in, rng)
	plan, _, err := SolveOnlineColGen(in.clone(), ColGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hints := plan.HotMachines()
	if len(hints) == 0 {
		t.Fatal("no hot machines in the plan")
	}
	seeded, st, err := SolveOnlineColGen(in.clone(), ColGenOptions{SeedMachines: hints})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiffF(seeded.TotalMC(), plan.TotalMC()); d > 1e-6 {
		t.Errorf("seeded cost %g, unseeded %g (rel %g)", seeded.TotalMC(), plan.TotalMC(), d)
	}
	if st.Rounds < 1 {
		t.Error("no pricing rounds")
	}
}

// fingerprintBuckets is rebucket's oracle: cg's closed machines grouped by
// machineFingerprint, buckets in order of their first member.
func fingerprintBuckets(cg *OnlineColGen) [][]int {
	in := cg.m.In
	var out [][]int
	byClass := make(map[string]int)
	for l, mach := range in.Machines {
		if cg.m.lay.isOpen(l) {
			continue
		}
		key := machineFingerprint(in, l, mach)
		b, ok := byClass[key]
		if !ok {
			b = len(out)
			byClass[key] = b
			out = append(out, nil)
		}
		out[b] = append(out[b], l)
	}
	return out
}

// TestRebucketMatchesFingerprint holds the price classes of a fresh
// restricted master — its buckets, their members and their order — to
// the exact-bits fingerprint partition: on a hetero epoch with a spot
// multiplier on some types and a node down, on the 10k-machine benchmark
// epoch, and on two hand-made pairs that share the scalar key.
func TestRebucketMatchesFingerprint(t *testing.T) {
	check := func(name string, in *Instance, want [][]int) {
		t.Helper()
		cg, err := NewOnlineColGen(in, ColGenOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle := fingerprintBuckets(cg)
		if !reflect.DeepEqual(cg.buckets, oracle) {
			t.Fatalf("%s: rebucket made %d buckets, the fingerprints %d:\n%v\nwant\n%v", name, len(cg.buckets), len(oracle), cg.buckets, oracle)
		}
		if want != nil && !reflect.DeepEqual(cg.buckets, want) {
			t.Fatalf("%s: buckets %v, want %v", name, cg.buckets, want)
		}
		if len(cg.opened) != len(cg.buckets) {
			t.Fatalf("%s: %d opened counters for %d buckets", name, len(cg.opened), len(cg.buckets))
		}
		t.Logf("%s: %d buckets", name, len(cg.buckets))
	}

	build := hetero10k(t)
	in := build()
	down := in.Machines[3].Nodes[0]
	in.FilterMachines(func(n cluster.NodeID) bool { return n != down })
	for l := range in.Machines {
		if in.Machines[l].Type < "t3" { // t0, t1, t2 and t10–t29
			in.Machines[l].PerECUSecMC *= 1.75
		}
	}
	check("hetero10k", in, nil)
	check("epoch10k", epoch10kInstance(), nil)

	// Machine 0 is the cheapest, so the greedy seed opens it and only
	// it. 1–5 share price and ECU; 3 is 1's twin, while 2 differs from
	// it in one MS entry, 4 in one bandwidth and 5 in its uptime.
	rng := rand.New(rand.NewSource(3))
	hand := synthInstance(2, 6, 3, 1, false, rng)
	fillSS(hand, rng)
	for k := range hand.Jobs {
		hand.Jobs[k].Data = k
	}
	hand.Machines[0].PerECUSecMC /= 2
	hand.MSPerMBMC[2] = append([]float64(nil), hand.MSPerMBMC[2]...)
	hand.MSPerMBMC[2][1] = math.Nextafter(hand.MSPerMBMC[2][1], 1)
	hand.BandwidthMBps[4] = append([]float64(nil), hand.BandwidthMBps[4]...)
	hand.BandwidthMBps[4][0] = math.Nextafter(hand.BandwidthMBps[4][0], 0)
	hand.Machines[5].Uptime = hand.Horizon / 2
	check("hand-made", hand, [][]int{{1, 3}, {2}, {4}, {5}})
}

// TestZeroBandwidthRefused: both online builders refuse an instance with a
// zero bandwidth entry with one message, naming the machine, the store and
// the first job that reads input — here job 1, after a job without input.
func TestZeroBandwidthRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := synthInstance(2, 4, 3, 2, false, rng)
	fillSS(in, rng)
	in.Jobs[0].Data, in.Jobs[1].Data = NoData, 1
	in.BandwidthMBps[2] = append([]float64(nil), in.BandwidthMBps[2]...)
	in.BandwidthMBps[2][1] = 0

	const want = "core: zero bandwidth between machine 2 and store 1 (job 1)"
	if _, err := NewOnlineColGen(in.clone(), ColGenOptions{}); err == nil || err.Error() != want {
		t.Errorf("NewOnlineColGen: %v, want %q", err, want)
	}
	if _, err := BuildOnlineModel(in.clone()); err == nil || err.Error() != want {
		t.Errorf("BuildOnlineModel: %v, want %q", err, want)
	}
}

// TestDirectModelIsOpenMaster: the direct online model is the restricted
// master with every machine seeded in ascending order — the fake node
// opens first either way — the same LP in lp.Write's text but for the
// problem's name, on the oracle's random instances.
func TestDirectModelIsOpenMaster(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomOracleInstance(rng)
		m, err := BuildOnlineModel(in.clone())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		all := make([]int, len(m.In.Machines))
		for l := range all {
			all[l] = l
		}
		cg, err := NewOnlineColGen(in.clone(), ColGenOptions{SeedMachines: all})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		direct, ok := strings.CutPrefix(lpText(t, m.prob), "problem lips-online\n")
		master, mok := strings.CutPrefix(lpText(t, cg.m.prob), "problem lips-online-rmp\n")
		if !ok || !mok {
			t.Fatalf("seed %d: problem names %q and %q", seed, m.prob.Name(), cg.m.prob.Name())
		}
		requireSameText(t, fmt.Sprintf("seed %d: BuildOnlineModel against the fully seeded master", seed), direct, master)
	}
}

// TestParkedBasis: on the oracle's random instances — shared items, jobs
// without input, items with several origins, units lost to FilterMachines
// — a master's first round starts at the parked basis and runs no phase 1,
// reaching the cold solve's objective, and column generation from it ends
// at a cold direct solve's objective, to 1e-9 relative, every later round
// warm too. The parked plan fits only where every store has room: a store
// that already holds its capacity exactly (the fixture gives each store
// room for all the data, so one holding all of it) is pushed over it by
// the simplex's anti-degeneracy perturbation of the place rows, and one
// that holds more is over it outright. Then the solver rejects the basis
// and reaches the same optimum cold, its first round through phase 1.
func TestParkedBasis(t *testing.T) {
	// solveFirstRound solves a fresh master's first round from the parked
	// basis and cold, and checks the objectives agree.
	solveFirstRound := func(label string, cg *OnlineColGen) *lp.Solution {
		t.Helper()
		parked, err := cg.m.prob.Solve(lp.Options{WarmStart: cg.m.parkedBasis()})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cold, err := cg.m.prob.Solve(lp.Options{})
		if err != nil {
			t.Fatalf("%s: cold: %v", label, err)
		}
		if parked.Status != lp.Optimal || cold.Status != lp.Optimal {
			t.Fatalf("%s: parked %v, cold %v", label, parked.Status, cold.Status)
		}
		if d := relDiffF(parked.Objective, cold.Objective); d > 1e-9 {
			t.Errorf("%s: first round from the parked basis %.12g, cold %.12g", label, parked.Objective, cold.Objective)
		}
		return parked
	}
	// solveToDirect runs column generation on a fresh master and holds
	// its optimum to a cold solve of the direct model.
	solveToDirect := func(label string, in *Instance, cg *OnlineColGen) lp.ColGenStats {
		t.Helper()
		plan, st, err := cg.Solve(ColGenOptions{})
		if err != nil {
			t.Fatalf("%s: colgen: %v", label, err)
		}
		m, err := BuildOnlineModel(in.clone())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		direct, err := m.Solve(lp.Options{})
		if err != nil {
			t.Fatalf("%s: direct: %v", label, err)
		}
		if d := relDiffF(plan.ObjectiveMC, direct.ObjectiveMC); d > 1e-9 {
			t.Errorf("%s: master %.12g mc, direct %.12g mc", label, plan.ObjectiveMC, direct.ObjectiveMC)
		}
		return st
	}

	fullSeeds := 0
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomOracleInstance(rng)
		label := fmt.Sprintf("seed %d", seed)
		opts := ColGenOptions{}
		for n := rng.Intn(3); n > 0; n-- {
			opts.SeedMachines = append(opts.SeedMachines, rng.Intn(len(in.Machines)+2)-1)
		}
		newMaster := func() *OnlineColGen {
			cg, err := NewOnlineColGen(in.clone(), opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return cg
		}
		full := hasFullStore(in)
		if full {
			fullSeeds++
		}
		// parked reports whether the start from the parked basis behaved as
		// the stores' room says it must.
		parked := func(warm bool, phase1 int) bool { return warm == !full && (phase1 == 0) == !full }
		if first := solveFirstRound(label, newMaster()); !parked(first.WarmStarted, first.Phase1) {
			t.Errorf("%s: parked basis accepted %v, %d phase-1 pivots (a full store: %v)", label, first.WarmStarted, first.Phase1, full)
		}
		st := solveToDirect(label, in, newMaster())
		if cold := st.Rounds - st.WarmRounds; !parked(cold == 0, st.Phase1) {
			t.Errorf("%s: %d of %d rounds warm, %d phase-1 pivots (a full store: %v)", label, st.WarmRounds, st.Rounds, st.Phase1, full)
		}
	}
	if fullSeeds == 0 || fullSeeds > 30 {
		t.Errorf("%d of 150 instances have a full store", fullSeeds)
	}

	// Over capacity: item 0's origin store holds half its size more than
	// its capacity; the other stores have room for everything.
	rng := rand.New(rand.NewSource(1))
	in := nodedInstance(6, 4, 3, 2, rng)
	fillSS(in, rng)
	o := 0
	for s := range in.Data[0].Origin {
		o = s
	}
	in.Stores[o].CapacityMB = storeHeld(in, o) - in.Data[0].SizeMB/2
	cg, err := NewOnlineColGen(in.clone(), ColGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first := solveFirstRound("over capacity", cg); first.WarmStarted || first.Phase1 == 0 {
		t.Errorf("over capacity: parked basis accepted %v, %d phase-1 pivots", first.WarmStarted, first.Phase1)
	}
	cg, err = NewOnlineColGen(in.clone(), ColGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := solveToDirect("over capacity", in, cg); st.WarmRounds != st.Rounds-1 || st.Phase1 == 0 {
		t.Errorf("over capacity: %d of %d rounds warm, %d phase-1 pivots; want all but the first, which runs phase 1",
			st.WarmRounds, st.Rounds, st.Phase1)
	}
}

// storeHeld is the data store s holds before any move.
func storeHeld(in *Instance, s int) float64 {
	held := 0.0
	for _, d := range in.Data {
		held += d.SizeMB * d.Origin[s]
	}
	return held
}

// hasFullStore reports whether a store already holds at least its
// capacity.
func hasFullStore(in *Instance) bool {
	for s, st := range in.Stores {
		if storeHeld(in, s) >= st.CapacityMB {
			return true
		}
	}
	return false
}
