package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// roundOracle is Plan.Round as it was before it learned to sort each job's
// keys once and apportion blocks over nonzero stores only: it clones and
// normalizes each job's map, sorts its keys, and rounds every item's
// blocks over every store unit.
func roundOracle(p *Plan) *IntegralPlan {
	in := p.In
	ip := &IntegralPlan{Plan: p, Deferred: make([]int, len(in.Jobs))}
	for k, job := range in.Jobs {
		fr := cloneFracs(p.XT[k])
		normalizeFracs(fr)
		keys := sortedKeys(nil, fr)
		fracs := make([]float64, len(keys))
		for idx, key := range keys {
			fracs[idx] = fr[key]
		}
		counts := LargestRemainder(fracs, job.NumTasks)
		for idx, key := range keys {
			n := counts[idx]
			if n == 0 {
				continue
			}
			l := key[0]
			if in.Machines[l].Fake {
				ip.Deferred[k] += n
				continue
			}
			ip.Assignments = append(ip.Assignments, TaskAssignment{
				Job: k, Machine: l, Store: key[1], Tasks: n,
			})
		}
	}
	if p.XD != nil {
		for i, d := range in.Data {
			blocks := numBlocks(d.SizeMB)
			if blocks == 0 {
				continue
			}
			fracs := append([]float64(nil), p.XD[i]...)
			normalizeSliceOracle(fracs)
			counts := LargestRemainder(fracs, blocks)
			for j, n := range counts {
				if n == 0 {
					continue
				}
				ip.Moves = append(ip.Moves, DataMove{Data: i, Store: j, Blocks: n})
			}
		}
	}
	return ip
}

func cloneFracs(in map[[2]int]float64) map[[2]int]float64 {
	out := make(map[[2]int]float64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// normalizeSliceOracle is roundOracle's block normalizer: it divides by
// the sum even when the sum is within 1e-12 of 1.
func normalizeSliceOracle(fr []float64) {
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if sum <= 0 {
		return
	}
	for i := range fr {
		fr[i] /= sum
	}
}

// roundCase is one fractional plan the rounding tests round.
type roundCase struct {
	name string
	plan *Plan
}

// roundCorpus is the plans the rounding tests hold Round on: the optimum
// of every masterCorpus epoch (TestModelOracle's 150 random instances and
// the stream-10k-hetero epoch, whole and with nodes down), and a
// hand-built plan that puts exact thirds of a 10-block item on stores 1,
// 3 and 4 of 5, so the leftover block's tie-break runs over stores that
// hold nothing between the ones that do. TestQuickSolverPlansAlwaysValid's
// random plans are the corpus's other half (quickSolverPlan).
func roundCorpus(t *testing.T) []roundCase {
	t.Helper()
	var out []roundCase
	for _, c := range masterCorpus(t) {
		cg, err := NewOnlineColGen(c.build(), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		plan, _, err := cg.Solve(c.opts)
		cg.Release()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, roundCase{c.name, plan})
	}
	in := &Instance{
		Horizon:  1,
		Machines: []Machine{{Name: "m", ECU: 1}},
		Stores:   make([]StoreUnit, 5),
		Data:     []DataItem{{Name: "d", SizeMB: 10 * 64, Origin: map[int]float64{1: 1}}},
		Jobs:     []JobItem{{Name: "j", Data: 0, CPUSec: 1, NumTasks: 10}},
	}
	third := 1.0 / 3
	out = append(out, roundCase{"thirds", &Plan{
		In: in,
		XT: []map[[2]int]float64{{{0, 1}: third, {0, 3}: third, {0, 4}: third}},
		XD: [][]float64{{0, third, 0, third, third}},
	}})
	return out
}

// TestRoundMatchesOracle requires Round to return what roundOracle returns,
// field for field, on every plan of roundCorpus and on
// TestQuickSolverPlansAlwaysValid's random plans.
func TestRoundMatchesOracle(t *testing.T) {
	for _, c := range roundCorpus(t) {
		got, want := c.plan.Round(), roundOracle(c.plan)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Round gives %+v %+v %v, the oracle %+v %+v %v", c.name,
				got.Assignments, got.Moves, got.Deferred, want.Assignments, want.Moves, want.Deferred)
		}
		// The leftover block of three equal remainders goes to the
		// lowest store.
		if c.name == "thirds" && !reflect.DeepEqual(got.Moves, []DataMove{{0, 1, 4}, {0, 3, 3}, {0, 4, 3}}) {
			t.Fatalf("thirds: moves %+v, want 4, 3 and 3 blocks on stores 1, 3 and 4", got.Moves)
		}
	}
	check := func(seed int64) bool {
		_, plan, err := quickSolverPlan(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(plan.Round(), roundOracle(plan)) {
			t.Logf("seed %d: Round differs from the oracle", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIntegralPlanOrder holds the order Round emits, which sched.LiPS.apply
// walks without regrouping: assignments strictly ascending by (Job,
// Machine, Store) and moves by (Data, Store), so each key appears once,
// on every plan of roundCorpus and on TestQuickSolverPlansAlwaysValid's
// random plans.
func TestIntegralPlanOrder(t *testing.T) {
	for _, c := range roundCorpus(t) {
		if err := integralPlanOrder(c.plan.Round()); err != "" {
			t.Fatalf("%s: %s", c.name, err)
		}
	}
	check := func(seed int64) bool {
		_, plan, err := quickSolverPlan(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := integralPlanOrder(plan.Round()); err != "" {
			t.Logf("seed %d: %s", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// integralPlanOrder describes the first pair of ip's assignments or moves
// out of strictly ascending order, or "".
func integralPlanOrder(ip *IntegralPlan) string {
	for i := 1; i < len(ip.Assignments); i++ {
		a, b := ip.Assignments[i-1], ip.Assignments[i]
		if cmp.Or(cmp.Compare(a.Job, b.Job), cmp.Compare(a.Machine, b.Machine), cmp.Compare(a.Store, b.Store)) >= 0 {
			return fmt.Sprintf("assignment %+v follows %+v", b, a)
		}
	}
	for i := 1; i < len(ip.Moves); i++ {
		a, b := ip.Moves[i-1], ip.Moves[i]
		if cmp.Or(cmp.Compare(a.Data, b.Data), cmp.Compare(a.Store, b.Store)) >= 0 {
			return fmt.Sprintf("move %+v follows %+v", b, a)
		}
	}
	return ""
}
