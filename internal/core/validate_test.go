package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/lp"
	"lips/internal/workload"
)

// Validate checks that a fractional plan satisfies the model's
// constraints: job coverage (2)/(10)/(20), machine capacity (4)/(12)/(23),
// data placement (9)/(19), store capacity (11)/(22) and data existence
// (3)/(13)/(24), all to within tol. It is the test suite's independent
// referee for solver output, and costs O(vars).
func (p *Plan) Validate(tol float64) error {
	in := p.In

	// Job coverage: every job fully assigned (including the fake node).
	for k := range in.Jobs {
		sum := 0.0
		for _, f := range p.XT[k] {
			if f < -tol || f > 1+tol {
				return fmt.Errorf("core: job %d has fraction %g outside [0,1]", k, f)
			}
			sum += f
		}
		if sum < 1-1e-6 {
			return fmt.Errorf("core: job %d covered only %g", k, sum)
		}
	}

	// Machine capacity (real machines only).
	for l, mach := range in.Machines {
		if mach.Fake {
			continue
		}
		used := 0.0
		for k, job := range in.Jobs {
			for lm, f := range p.XT[k] {
				if lm[0] == l {
					used += f * job.CPUSec
				}
			}
		}
		cap := mach.ECU * in.HorizonOf(l)
		if used > cap+tol*(1+cap) {
			return fmt.Errorf("core: machine %d uses %g of %g ECU-seconds", l, used, cap)
		}
	}

	if p.XD == nil {
		return nil
	}

	// Placement: each data item fully placed.
	for i := range in.Data {
		sum := 0.0
		for j, f := range p.XD[i] {
			if f < -tol {
				return fmt.Errorf("core: data %d store %d has negative fraction %g", i, j, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("core: data %d placed %g times", i, sum)
		}
	}

	// Store capacity.
	for j, s := range in.Stores {
		used := 0.0
		for i, d := range in.Data {
			used += p.XD[i][j] * d.SizeMB
		}
		if used > s.CapacityMB+tol*(1+s.CapacityMB) {
			return fmt.Errorf("core: store %d holds %g of %g MB", j, used, s.CapacityMB)
		}
	}

	// Existence: tasks read only data that is placed there.
	for k, job := range in.Jobs {
		if job.Data == NoData {
			continue
		}
		perStore := make(map[int]float64)
		for lm, f := range p.XT[k] {
			if lm[1] != noStore && !in.Machines[lm[0]].Fake {
				perStore[lm[1]] += f
			}
		}
		for store, f := range perStore {
			if f > p.XD[job.Data][store]+1e-6 {
				return fmt.Errorf("core: job %d reads %g of data %d from store %d holding %g",
					k, f, job.Data, store, p.XD[job.Data][store])
			}
		}
	}

	// Flow consistency: flows decompose XD and respect origins.
	if p.XDFlows != nil {
		for i, d := range in.Data {
			outflow := make(map[int]float64)
			for oj, f := range p.XDFlows[i] {
				if f < -tol {
					return fmt.Errorf("core: data %d negative flow %g", i, f)
				}
				outflow[oj[0]] += f
			}
			for o, f := range outflow {
				if math.Abs(f-d.Origin[o]) > 1e-6 {
					return fmt.Errorf("core: data %d origin %d ships %g of %g", i, o, f, d.Origin[o])
				}
			}
		}
	}
	return nil
}

func TestValidateAcceptsSolverPlans(t *testing.T) {
	in := twoNodeInstance(t, 1, 2)
	for _, build := range []func() (*Model, error){
		func() (*Model, error) { return BuildCoScheduleModel(in) },
		func() (*Model, error) { return BuildOnlineModel(in) },
	} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		p := solvePlan(t, m)
		if err := p.Validate(1e-7); err != nil {
			t.Errorf("%s: %v", m.Kind, err)
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	in := twoNodeInstance(t, 1, 2)
	m, err := BuildCoScheduleModel(in)
	if err != nil {
		t.Fatal(err)
	}
	good := solvePlan(t, m)

	// Under-covered job.
	bad := *good
	bad.XT = []map[[2]int]float64{{[2]int{0, 0}: 0.4}}
	if err := bad.Validate(1e-7); err == nil {
		t.Error("under-coverage accepted")
	}

	// Over-capacity machine.
	tiny := twoNodeInstance(t, 1, 2)
	tiny.Horizon = 1 // capacity 1 ECU-second vs 64 demanded
	bad2 := *good
	bad2.In = tiny
	if err := bad2.Validate(1e-7); err == nil {
		t.Error("capacity violation accepted")
	}

	// Reading data from a store that does not hold it.
	bad3 := *good
	bad3.XT = []map[[2]int]float64{{[2]int{0, 1}: 1}} // read store 1
	bad3.XD = [][]float64{{1, 0}}                     // data fully on store 0
	bad3.XDFlows = nil
	if err := bad3.Validate(1e-7); err == nil {
		t.Error("existence violation accepted")
	}
}

// TestQuickSolverPlansAlwaysValid fuzzes random instances and checks every
// optimal plan against the independent constraint checker.
func TestQuickSolverPlansAlwaysValid(t *testing.T) {
	check := func(seed int64) bool {
		in, plan, err := quickSolverPlan(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := plan.Validate(1e-6); err != nil {
			t.Logf("seed %d: plan invalid: %v", seed, err)
			return false
		}
		// Rounding conserves tasks.
		ip := plan.Round()
		perJob := make([]int, len(in.Jobs))
		for _, a := range ip.Assignments {
			perJob[a.Job] += a.Tasks
		}
		for k, job := range in.Jobs {
			if perJob[k]+ip.Deferred[k] != job.NumTasks {
				t.Logf("seed %d: job %d rounds to %d+%d of %d", seed, k, perJob[k], ip.Deferred[k], job.NumTasks)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// quickSolverPlan draws TestQuickSolverPlansAlwaysValid's instance for
// seed — two to six nodes over three zones, one to four input jobs — and
// solves its online model directly.
func quickSolverPlan(seed int64) (*Instance, *Plan, error) {
	rng := rand.New(rand.NewSource(seed))
	nodes := 2 + rng.Intn(5)
	b := cluster.NewBuilder("za", "zb", "zc")
	zones := []string{"za", "zb", "zc"}
	for i := 0; i < nodes; i++ {
		b.AddNode(zones[rng.Intn(3)], "t"+string(rune('a'+rng.Intn(3))),
			1+float64(rng.Intn(4)), 2, cost.Millicents(rng.Float64()*5), 1e5)
	}
	c := b.Build()
	wb := workload.NewBuilder()
	jobs := 1 + rng.Intn(4)
	for j := 0; j < jobs; j++ {
		arch := workload.Archetype{Name: "syn", Property: workload.Mixed,
			CPUSecPerBlock: 1 + rng.Float64()*90}
		blocks := 1 + rng.Intn(12)
		wb.AddInputJob("j", "u", arch, float64(blocks)*64, cluster.StoreID(rng.Intn(nodes)), 0)
	}
	w := wb.Build()
	in, err := NewInstance(c, w.Jobs, w.Objects, w.Placement(), InstanceOptions{
		Aggregate: rng.Intn(2) == 0,
		Horizon:   200 + rng.Float64()*2000,
	})
	if err != nil {
		return nil, nil, err
	}
	m, err := BuildOnlineModel(in)
	if err != nil {
		return nil, nil, err
	}
	plan, err := m.Solve(lp.Options{})
	return in, plan, err
}
