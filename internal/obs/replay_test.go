package obs

import (
	"fmt"
	"sync"
	"testing"

	"lips/internal/cost"
	"lips/internal/trace"
)

// TestReasonsArePriced holds the pre-registered kill and move reasons to
// the money table the simulator and TraceSink share: each bills a
// category.
func TestReasonsArePriced(t *testing.T) {
	for _, r := range KillReasons {
		if trace.KillCategory(r) == "" {
			t.Errorf("kill reason %q has no ledger category", r)
		}
	}
	for _, r := range MoveReasons {
		if trace.MoveCategory(r) == "" {
			t.Errorf("move reason %q has no ledger category", r)
		}
	}
}

// TestChargeConcurrent charges one bundle from several goroutines, as
// two runs sharing a registry would: the tenant cache is locked and no
// microcent is lost.
func TestChargeConcurrent(t *testing.T) {
	reg := NewRegistry()
	m := RegisterSim(reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Charge(fmt.Sprintf("t%d", (g+i)%5), cost.Categories[i%len(cost.Categories)], 1)
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Sum(MCost); got != 800 {
		t.Errorf("chargeback sum = %g, want 800", got)
	}
	if got := reg.Sum(MSimCost); got != 800 {
		t.Errorf("category sum = %g, want 800", got)
	}
}
