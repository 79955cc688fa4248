package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJainIndexKnownValues(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares: %g", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single winner: %g", got)
	}
	if got := JainIndex([]float64{2, 1}); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("2:1 shares: %g", got)
	}
	if got := JainIndex(nil); got != 1 {
		t.Errorf("empty: %g", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all zero: %g", got)
	}
}

func TestQuickJainBounds(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		k := 1 + int(n)%20
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = rng.Float64() * 10
		}
		j := JainIndex(xs)
		return j >= 1/float64(k)-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLocalityCounter(t *testing.T) {
	var lc LocalityCounter
	lc.Observe(NodeLocal)
	lc.Observe(NodeLocal)
	lc.Observe(ZoneLocal)
	lc.Observe(Remote)
	lc.Observe(NoInput)
	if lc.Total() != 5 {
		t.Errorf("Total = %d", lc.Total())
	}
	if lc.Count(NodeLocal) != 2 {
		t.Errorf("NodeLocal = %d", lc.Count(NodeLocal))
	}
	if got := lc.LocalFraction(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("LocalFraction = %g", got)
	}
	var empty LocalityCounter
	if empty.LocalFraction() != 1 {
		t.Error("empty counter should report full locality")
	}
}

func TestLocalityString(t *testing.T) {
	for l, want := range map[Locality]string{
		NodeLocal: "node-local", ZoneLocal: "zone-local", Remote: "remote", NoInput: "no-input",
	} {
		if l.String() != want {
			t.Errorf("%d.String() = %q", l, l.String())
		}
	}
	if Locality(9).String() != "unknown" {
		t.Error("fallback string wrong")
	}
}

func TestNodeCPU(t *testing.T) {
	nc := NewNodeCPU()
	nc.Add(3, 10)
	nc.Add(1, 5)
	nc.Add(3, 2)
	if nc.Of(3) != 12 || nc.Of(1) != 5 || nc.Of(99) != 0 {
		t.Errorf("Of wrong: %g %g", nc.Of(3), nc.Of(1))
	}
	if nodes := nc.Nodes(); len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 3 {
		t.Errorf("Nodes = %v", nodes)
	}
	if nc.ActiveNodes(4) != 2 || nc.ActiveNodes(6) != 1 {
		t.Errorf("ActiveNodes wrong")
	}
}

func TestUtilization(t *testing.T) {
	if got := Utilization(50, 10, 10); got != 0.5 {
		t.Errorf("Utilization = %g", got)
	}
	if got := Utilization(200, 10, 10); got != 1 {
		t.Errorf("clamp failed: %g", got)
	}
	if got := Utilization(1, 0, 10); got != 0 {
		t.Errorf("zero slots: %g", got)
	}
}
