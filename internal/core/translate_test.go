package core

import (
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/lp"
)

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

func solveOnline(t *testing.T, in *Instance, opts lp.Options) (*Instance, *Plan) {
	t.Helper()
	model, err := BuildOnlineModel(in)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := model.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	return in, plan
}

// TestTranslateOnlineBasisChurn drives the epoch churn sequence the
// scheduler sees — drop machines, solve, recover, solve — carrying the
// basis across each step with TranslateOnlineBasis, fuzzed over seeds.
// The warm solves must match cold solves of the same instance, and the LP
// objective must move monotonically with capacity: up when machines leave,
// back down when they return.
func TestTranslateOnlineBasisChurn(t *testing.T) {
	sawWarm := false
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := nodedInstance(4+rng.Intn(5), 12+rng.Intn(10), 2+rng.Intn(3), 3, rng)

		in0, plan0 := solveOnline(t, base.clone(), lp.Options{})
		if plan0.Basis == nil {
			continue
		}

		// Drop: a random fifth of the nodes dies.
		dead := map[cluster.NodeID]bool{}
		for l := range base.Machines {
			if rng.Intn(5) == 0 {
				dead[cluster.NodeID(l)] = true
			}
		}
		alive := func(n cluster.NodeID) bool { return !dead[n] }
		in1 := base.clone()
		in1.FilterMachines(alive)
		coldIn1 := in1.clone()
		m1, err := BuildOnlineModel(in1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tb := TranslateOnlineBasis(plan0.Basis, in0, in1)
		warmOpts := lp.Options{WarmStart: tb, Dual: true}
		if tb == nil {
			warmOpts = lp.Options{}
		}
		plan1, err := m1.Solve(warmOpts)
		if err != nil {
			t.Fatalf("seed %d: drop solve: %v", seed, err)
		}
		if plan1.WarmStarted {
			sawWarm = true
		}
		_, cold1 := solveOnline(t, coldIn1, lp.Options{})
		if d := relDiffF(plan1.ObjectiveMC, cold1.ObjectiveMC); d > 1e-6 {
			t.Errorf("seed %d: warm drop objective %g, cold %g (rel %g)", seed, plan1.ObjectiveMC, cold1.ObjectiveMC, d)
		}
		if plan1.ObjectiveMC < plan0.ObjectiveMC-1e-6*(1+plan0.ObjectiveMC) {
			t.Errorf("seed %d: objective fell from %g to %g after losing machines", seed, plan0.ObjectiveMC, plan1.ObjectiveMC)
		}

		// Recover: everything comes back; the instance is in0's shape again.
		in2 := base.clone()
		m2, err := BuildOnlineModel(in2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tb2 := TranslateOnlineBasis(plan1.Basis, in1, in2)
		warmOpts = lp.Options{WarmStart: tb2, Dual: true}
		if tb2 == nil {
			warmOpts = lp.Options{}
		}
		plan2, err := m2.Solve(warmOpts)
		if err != nil {
			t.Fatalf("seed %d: recover solve: %v", seed, err)
		}
		if d := relDiffF(plan2.ObjectiveMC, plan0.ObjectiveMC); d > 1e-6 {
			t.Errorf("seed %d: recovered objective %g, original %g (rel %g)", seed, plan2.ObjectiveMC, plan0.ObjectiveMC, d)
		}
		if plan2.ObjectiveMC > plan1.ObjectiveMC+1e-6*(1+plan1.ObjectiveMC) {
			t.Errorf("seed %d: objective rose from %g to %g after recovering machines", seed, plan1.ObjectiveMC, plan2.ObjectiveMC)
		}
	}
	if !sawWarm {
		t.Error("no churn step ever warm-started; translation never produced a usable basis")
	}
}

// TestTranslateOnlineBasisShapeGuard pins the nil returns when the
// job/data/store shape diverges.
func TestTranslateOnlineBasisShapeGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := nodedInstance(5, 8, 2, 2, rng)
	in0, plan0 := solveOnline(t, base.clone(), lp.Options{})
	if plan0.Basis == nil {
		t.Fatal("no basis")
	}
	fewerJobs := base.clone()
	fewerJobs.Jobs = fewerJobs.Jobs[:3]
	fewerJobs.Data = fewerJobs.Data[:3]
	if TranslateOnlineBasis(plan0.Basis, in0, fewerJobs) != nil {
		t.Error("translated across a job-count change")
	}
	if TranslateOnlineBasis(nil, in0, in0) != nil {
		t.Error("translated a nil basis")
	}
}
