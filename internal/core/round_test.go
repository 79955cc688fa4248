package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/lp"
	"lips/internal/workload"
)

func TestLargestRemainderExact(t *testing.T) {
	got := LargestRemainder([]float64{0.5, 0.25, 0.25}, 8)
	if got[0] != 4 || got[1] != 2 || got[2] != 2 {
		t.Errorf("got %v", got)
	}
}

func TestLargestRemainderRemainders(t *testing.T) {
	// 1/3 each of 10: 3.33 each → 3+3+3 with one leftover to index 0.
	got := LargestRemainder([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 10)
	sum := got[0] + got[1] + got[2]
	if sum != 10 {
		t.Fatalf("sum %d", sum)
	}
	for _, c := range got {
		if c < 3 || c > 4 {
			t.Errorf("count %d outside [3,4]", c)
		}
	}
}

func TestLargestRemainderEdgeCases(t *testing.T) {
	if got := LargestRemainder(nil, 5); len(got) != 0 {
		t.Errorf("nil fracs: %v", got)
	}
	if got := LargestRemainder([]float64{1}, 0); got[0] != 0 {
		t.Errorf("zero total: %v", got)
	}
	// Negative fractions are clamped.
	got := LargestRemainder([]float64{-0.5, 1.0}, 4)
	if got[0] != 0 || got[1] != 4 {
		t.Errorf("negative frac: %v", got)
	}
	// Fractions summing above 1 are trimmed back to the total.
	got = LargestRemainder([]float64{0.9, 0.9}, 10)
	if got[0]+got[1] != 10 {
		t.Errorf("oversum: %v", got)
	}
}

func TestQuickLargestRemainderInvariants(t *testing.T) {
	check := func(seed int64, n uint8, total uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(n)%12
		tot := int(total) % 5000
		fr := make([]float64, k)
		sum := 0.0
		for i := range fr {
			fr[i] = rng.Float64()
			sum += fr[i]
		}
		for i := range fr {
			fr[i] /= sum
		}
		got := LargestRemainder(fr, tot)
		s := 0
		for i, c := range got {
			s += c
			exact := fr[i] * float64(tot)
			if float64(c) < math.Floor(exact)-1e-9 || float64(c) > math.Ceil(exact)+1e-9 {
				t.Logf("seed %d: count %d for exact %g", seed, c, exact)
				return false
			}
		}
		return s == tot
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func roundedInstance(t *testing.T) (*Instance, *Plan) {
	t.Helper()
	b := cluster.NewBuilder("za", "zb")
	b.AddNode("za", "exp", 4, 2, cost.Millicents(5), 1e6)
	b.AddNode("zb", "cheap", 4, 2, cost.Millicents(1), 1e6)
	b.AddNode("zb", "cheap", 4, 2, cost.Millicents(1), 1e6)
	c := b.Build()
	wb := workload.NewBuilder()
	wb.AddInputJob("g", "u", workload.Grep, 20*64, 0, 0) // 20 tasks
	wb.AddInputJob("w", "u", workload.WordCount, 15*64, 1, 0)
	wb.AddNoInputJob("pi", "u", 4, 100, 0)
	w := wb.Build()
	in, err := NewInstance(c, w.Jobs, w.Objects, w.Placement(), InstanceOptions{Aggregate: true, Horizon: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildCoScheduleModel(in)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return in, p
}

func TestRoundConservesTasks(t *testing.T) {
	in, p := roundedInstance(t)
	ip := p.Round()
	perJob := make([]int, len(in.Jobs))
	for _, a := range ip.Assignments {
		perJob[a.Job] += a.Tasks
		if a.Tasks <= 0 {
			t.Errorf("assignment with %d tasks", a.Tasks)
		}
		if in.Machines[a.Machine].Fake {
			t.Error("fake node in assignments")
		}
	}
	for k, job := range in.Jobs {
		if perJob[k]+ip.Deferred[k] != job.NumTasks {
			t.Errorf("job %d: %d+%d tasks, want %d", k, perJob[k], ip.Deferred[k], job.NumTasks)
		}
	}
}

func TestRoundConservesBlocks(t *testing.T) {
	in, p := roundedInstance(t)
	ip := p.Round()
	perData := make([]int, len(in.Data))
	for _, mv := range ip.Moves {
		perData[mv.Data] += mv.Blocks
	}
	for i, d := range in.Data {
		want := numBlocks(d.SizeMB)
		if perData[i] != want {
			t.Errorf("data %d: %d blocks, want %d", i, perData[i], want)
		}
	}
}

func TestIntegralCostNearFractional(t *testing.T) {
	in, p := roundedInstance(t)
	ip := p.Round()
	frac := p.TotalMC()
	integral := ip.CostMC()
	if math.Abs(integral-frac) > 0.15*frac+1 {
		t.Errorf("integral %g strays from fractional %g", integral, frac)
	}
	_ = in
}

func TestRoundOnlineDefersFakeTasks(t *testing.T) {
	b := cluster.NewBuilder("za")
	b.AddNode("za", "only", 1, 2, cost.Millicents(1), 1e6)
	c := b.Build()
	wb := workload.NewBuilder()
	arch := workload.Archetype{Name: "syn", Property: workload.Mixed, CPUSecPerBlock: 64}
	wb.AddInputJob("j", "u", arch, 10*64, 0, 0) // 10 tasks, 640 ECU-sec
	w := wb.Build()
	in, err := NewInstance(c, w.Jobs, w.Objects, w.Placement(), InstanceOptions{Horizon: 320})
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildOnlineModel(in)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ip := p.Round()
	// Half the capacity → 5 tasks deferred.
	if ip.Deferred[0] != 5 {
		t.Errorf("deferred %d tasks, want 5", ip.Deferred[0])
	}
}
