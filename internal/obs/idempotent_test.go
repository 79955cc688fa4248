package obs

import (
	"sync"
	"testing"
)

// TestRegisterBundlesIdempotent pins the regression where a scheduler's
// Init re-registering the metric families on a reused registry (one
// sim.Run after another) panicked on duplicate names: repeated Register*
// calls must return the same bundle pointers.
func TestRegisterBundlesIdempotent(t *testing.T) {
	r := NewRegistry()
	sim1, sim2 := RegisterSim(r), RegisterSim(r)
	if sim1 != sim2 {
		t.Error("RegisterSim returned distinct bundles on repeat call")
	}
	sched1, sched2 := RegisterSched(r), RegisterSched(r)
	if sched1 != sched2 {
		t.Error("RegisterSched returned distinct bundles on repeat call")
	}
	// Counters accumulate across re-registration rather than resetting.
	sched1.solves.Inc()
	if got, ok := r.Value(MLPSolves); !ok || got != 1 {
		t.Errorf("solves after re-registration = %g (ok=%v), want 1", got, ok)
	}
	RegisterSched(r).solves.Inc()
	if got, _ := r.Value(MLPSolves); got != 2 {
		t.Errorf("solves after third registration = %g, want 2", got)
	}
}

// TestRegisterBundlesConcurrent hammers the three registration entry
// points from many goroutines; the race detector plus pointer equality
// catch double-construction.
func TestRegisterBundlesConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	sims := make([]*SimMetrics, 16)
	scheds := make([]*SchedMetrics, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sims[i] = RegisterSim(r)
			scheds[i] = RegisterSched(r)
		}(i)
	}
	wg.Wait()
	for i := 1; i < 16; i++ {
		if sims[i] != sims[0] || scheds[i] != scheds[0] {
			t.Fatalf("goroutine %d got a different bundle", i)
		}
	}
}
