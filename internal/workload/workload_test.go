package workload

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lips/internal/cluster"
)

func someStores(n int) []cluster.StoreID {
	out := make([]cluster.StoreID, n)
	for i := range out {
		out[i] = cluster.StoreID(i)
	}
	return out
}

func TestTable1Archetypes(t *testing.T) {
	want := map[string]float64{
		"grep": 20, "stress1": 37, "stress2": 75, "wordcount": 90,
	}
	for name, blocks := range want {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.CPUSecPerBlock != blocks {
			t.Errorf("%s: CPUSecPerBlock = %g, want %g", name, a.CPUSecPerBlock, blocks)
		}
		if !a.HasInput() {
			t.Errorf("%s must have input", name)
		}
		if a.CPUSecPerMB() != blocks/64 {
			t.Errorf("%s: CPUSecPerMB = %g", name, a.CPUSecPerMB())
		}
	}
	if Pi.HasInput() {
		t.Error("pi must not have input")
	}
	if !math.IsInf(Pi.CPUSecPerBlock, 1) {
		t.Error("pi intensity must be +Inf")
	}
	if _, err := ByName("sort"); err == nil {
		t.Error("expected error for unknown archetype")
	}
	// Ordering of Table I columns: Grep < Stress1 < Stress2 < WordCount.
	for i := 0; i+1 < 4; i++ {
		if Archetypes[i].CPUSecPerBlock >= Archetypes[i+1].CPUSecPerBlock {
			t.Errorf("archetype order broken at %d", i)
		}
	}
}

func TestBuilderInputJob(t *testing.T) {
	b := NewBuilder()
	j := b.AddInputJob("j", "u", Grep, 10*1024, 3, 5)
	w := b.Build()
	if j.NumTasks != 160 {
		t.Errorf("NumTasks = %d, want 160", j.NumTasks)
	}
	if j.TotalCPUSec() != 10*1024*(20.0/64) {
		t.Errorf("TotalCPUSec = %g", j.TotalCPUSec())
	}
	obj := w.Objects[j.Object]
	if obj.Origin != 3 || obj.SizeMB != 10*1024 {
		t.Errorf("object = %+v", obj)
	}
	if w.TotalInputMB() != 10*1024 {
		t.Errorf("TotalInputMB = %g", w.TotalInputMB())
	}
}

func TestBuilderNoInputJob(t *testing.T) {
	b := NewBuilder()
	j := b.AddNoInputJob("pi", "u", 4, 300, 0)
	w := b.Build()
	if j.HasInput() {
		t.Error("pi job must have no input")
	}
	if j.TotalCPUSec() != 1200 {
		t.Errorf("TotalCPUSec = %g", j.TotalCPUSec())
	}
	if w.TotalTasks() != 4 {
		t.Errorf("TotalTasks = %d", w.TotalTasks())
	}
}

func TestBuilderPanicsOnPiWithInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder().AddInputJob("bad", "u", Pi, 100, 0, 0)
}

func TestPaperJobSetTable4(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := PaperJobSet(rng, someStores(20))
	if len(w.Jobs) != 9 {
		t.Fatalf("%d jobs", len(w.Jobs))
	}
	if got := w.TotalTasks(); got != 1608 {
		t.Errorf("TotalTasks = %d, want 1608", got)
	}
	if got := w.TotalInputMB(); got != 100*1024 {
		t.Errorf("TotalInputMB = %g, want 100 GB", got)
	}
	counts := map[string]int{}
	for _, j := range w.Jobs {
		counts[j.Archetype]++
	}
	if counts["pi"] != 2 || counts["wordcount"] != 2 || counts["grep"] != 3 || counts["stress2"] != 2 {
		t.Errorf("archetype counts = %v", counts)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := Random(rng, someStores(10), RandomSpec{TotalTasks: 500})
	if w.TotalTasks() < 500 {
		t.Errorf("TotalTasks = %d, want >= 500", w.TotalTasks())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, j := range w.Jobs {
		if j.HasInput() {
			if j.InputMB > 6*1024 {
				t.Errorf("job %s input %g exceeds 6 GB", j.Name, j.InputMB)
			}
		} else if j.TotalCPUSec() > 1000 {
			t.Errorf("job %s CPU %g exceeds 1000 s", j.Name, j.TotalCPUSec())
		}
	}
}

func TestSWIMWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := SWIM(rng, someStores(100), DefaultSWIMSpec())
	if len(w.Jobs) != 400 {
		t.Fatalf("%d jobs", len(w.Jobs))
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Arrivals sorted within the 24h window.
	last := -1.0
	for _, j := range w.Jobs {
		if j.ArrivalSec < last {
			t.Fatal("arrivals not sorted")
		}
		if j.ArrivalSec < 0 || j.ArrivalSec > 24*3600 {
			t.Fatalf("arrival %g outside window", j.ArrivalSec)
		}
		last = j.ArrivalSec
	}
	// The size mixture must be dominated by small jobs with a heavy tail.
	small, large := 0, 0
	for _, j := range w.Jobs {
		switch {
		case j.NumTasks <= 20:
			small++
		case j.NumTasks > 150:
			large++
		}
	}
	if small < 250 {
		t.Errorf("only %d small jobs of 400", small)
	}
	if large == 0 {
		t.Error("no large jobs in the tail")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := SWIM(rng, someStores(5), SWIMSpec{Jobs: 50, DurationSec: 3600})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf, rand.New(rand.NewSource(5)), someStores(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(w.Jobs) {
		t.Fatalf("round trip: %d jobs, want %d", len(got.Jobs), len(w.Jobs))
	}
	for i := range w.Jobs {
		a, b := w.Jobs[i], got.Jobs[i]
		if a.Name != b.Name || a.NumTasks != b.NumTasks {
			t.Fatalf("job %d: %v vs %v", i, a, b)
		}
		if math.Abs(a.ArrivalSec-b.ArrivalSec) > 1e-3 {
			t.Fatalf("job %d arrival drifted: %g vs %g", i, a.ArrivalSec, b.ArrivalSec)
		}
		if math.Abs(a.TotalCPUSec()-b.TotalCPUSec()) > 1e-6*a.TotalCPUSec() {
			t.Fatalf("job %d CPU drifted: %g vs %g", i, a.TotalCPUSec(), b.TotalCPUSec())
		}
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"only\tthree\tfields\n",
		"j\tNaNsubmit\t100\t1\t1\n",
		"j\t0\tnotbytes\t1\t1\n",
		"j\t0\t100\tx\t1\n",
		"j\t0\t100\t1\tx\n",
	} {
		if _, err := ReadTrace(bytes.NewBufferString(bad), rand.New(rand.NewSource(1)), someStores(1)); err == nil {
			t.Errorf("ReadTrace(%q) succeeded", bad)
		}
	}
	// Comments and blank lines are fine.
	w, err := ReadTrace(bytes.NewBufferString("# comment\n\npi\t1\t0\t300\t4\n"), rand.New(rand.NewSource(1)), someStores(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 1 || w.Jobs[0].HasInput() {
		t.Errorf("jobs = %+v", w.Jobs)
	}
}

func TestQuickRandomWorkloadValid(t *testing.T) {
	check := func(seed int64, tasks uint16) bool {
		n := 1 + int(tasks)%800
		rng := rand.New(rand.NewSource(seed))
		w := Random(rng, someStores(8), RandomSpec{TotalTasks: n})
		if err := w.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return w.TotalTasks() >= n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := PaperJobSet(rng, someStores(3))
	w.Jobs[3].NumTasks = 7 // disagree with block count
	if err := w.Validate(); err == nil {
		t.Error("expected validation error")
	}
}
