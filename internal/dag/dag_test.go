package dag

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lips/internal/cluster"
	"lips/internal/workload"
)

// chain builds the dependency lists of a linear pipeline: job i+1
// depends on job i.
func chain(n int) [][]int {
	deps := make([][]int, n)
	for i := 1; i < n; i++ {
		deps[i] = []int{i - 1}
	}
	return deps
}

func TestValidate(t *testing.T) {
	if err := Validate(3, [][]int{nil, {0}, {1}}); err != nil {
		t.Errorf("chain: %v", err)
	}
	if err := Validate(2, [][]int{{1}, {0}}); err == nil {
		t.Error("2-cycle accepted")
	}
	if err := Validate(1, [][]int{{0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if err := Validate(2, [][]int{{5}}); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := Validate(1, [][]int{nil, nil}); err == nil {
		t.Error("too many lists accepted")
	}
	if err := Validate(0, nil); err != nil {
		t.Errorf("empty graph: %v", err)
	}
}

func TestLevelsChain(t *testing.T) {
	levels, err := Levels(4, chain(4))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0}, {1}, {2}, {3}}
	if !reflect.DeepEqual(levels, want) {
		t.Errorf("levels = %v", levels)
	}
}

func TestLevelsDiamond(t *testing.T) {
	levels, err := Levels(5, FanOutIn(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("levels = %v", levels)
	}
	if len(levels[0]) != 1 || levels[0][0] != 0 {
		t.Errorf("level 0 = %v", levels[0])
	}
	if len(levels[1]) != 3 {
		t.Errorf("level 1 = %v", levels[1])
	}
	if len(levels[2]) != 1 || levels[2][0] != 4 {
		t.Errorf("level 2 = %v", levels[2])
	}
}

func TestLevelsIndependent(t *testing.T) {
	levels, err := Levels(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 1 || len(levels[0]) != 3 {
		t.Errorf("levels = %v", levels)
	}
}

func TestLevelsCycle(t *testing.T) {
	if _, err := Levels(3, [][]int{{2}, {0}, {1}}); err == nil {
		t.Error("3-cycle accepted")
	}
}

func TestFanOutInPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FanOutIn(2)
}

func buildJobs(n int) *workload.Workload {
	wb := workload.NewBuilder()
	for i := 0; i < n; i++ {
		wb.AddInputJob("j", "u", workload.Grep, 64*float64(1+i), cluster.StoreID(0), 0)
	}
	return wb.Build()
}

func TestCriticalPathChain(t *testing.T) {
	w := buildJobs(3)
	// Chain: critical path is the sum of all job demands.
	got, err := CriticalPathCPUSec(w, chain(3))
	if err != nil {
		t.Fatal(err)
	}
	want := w.TotalCPUSec()
	if got != want {
		t.Errorf("critical path = %g, want %g", got, want)
	}
}

func TestCriticalPathIndependent(t *testing.T) {
	w := buildJobs(3)
	// Independent: critical path is the largest single job.
	got, err := CriticalPathCPUSec(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := w.Jobs[2].TotalCPUSec()
	if got != want {
		t.Errorf("critical path = %g, want %g", got, want)
	}
}

func TestCriticalPathRejectsCycles(t *testing.T) {
	w := buildJobs(2)
	if _, err := CriticalPathCPUSec(w, [][]int{{1}, {0}}); err == nil {
		t.Error("cycle accepted")
	}
}

// TestQuickLevelsAreTopological: in a random DAG, every prerequisite sits
// in a strictly lower level, levels partition the jobs, and level counts
// are positive.
func TestQuickLevelsAreTopological(t *testing.T) {
	check := func(seed int64, nn uint8) bool {
		n := 1 + int(nn)%20
		rng := rand.New(rand.NewSource(seed))
		// Random DAG: edges only from lower to higher indices.
		deps := make([][]int, n)
		for j := 1; j < n; j++ {
			for d := 0; d < j; d++ {
				if rng.Intn(3) == 0 {
					deps[j] = append(deps[j], d)
				}
			}
		}
		levels, err := Levels(n, deps)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		levelOf := make([]int, n)
		count := 0
		for li, level := range levels {
			if len(level) == 0 {
				t.Logf("seed %d: empty level %d", seed, li)
				return false
			}
			for _, j := range level {
				levelOf[j] = li
				count++
			}
		}
		if count != n {
			t.Logf("seed %d: %d jobs in levels, want %d", seed, count, n)
			return false
		}
		for j, ds := range deps {
			for _, d := range ds {
				if levelOf[d] >= levelOf[j] {
					t.Logf("seed %d: dep %d (level %d) not below %d (level %d)",
						seed, d, levelOf[d], j, levelOf[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
