package obs

import "lips/internal/trace"

// TraceSink replays a structured run trace into a Registry, rebuilding
// the same metric families the live instrumentation maintains — used by
// `lips-trace -metrics` so offline traces and live scrapes share one
// vocabulary. Lifecycle counters (enqueues, launches by locality, dones,
// kills, moves, faults, epochs) reproduce the live values exactly; the
// sampled gauges land on the last sample event; per-category cost
// counters are accumulated from the cumulative sample series (the delta
// between consecutive samples), so they stop at the last sample rather
// than the end-of-run ledger. Wall-clock histograms fill only when the
// trace was recorded with timings enabled.
type TraceSink struct {
	sim   *SimMetrics
	sched *SchedMetrics

	// lastCost is the previous sample's cumulative microcents per
	// category, the baseline for the next delta; reset by a run header.
	lastCost map[string]float64
	// lastTenant is the same baseline for the per-tenant chargeback
	// counters, keyed by tenant then category.
	lastTenant map[string]map[string]float64
}

// NewTraceSink returns a sink feeding reg. The sim and sched families
// are registered up front so even an empty trace yields a complete,
// all-zero exposition.
func NewTraceSink(reg *Registry) *TraceSink {
	return &TraceSink{
		sim:        RegisterSim(reg),
		sched:      RegisterSched(reg),
		lastCost:   make(map[string]float64),
		lastTenant: make(map[string]map[string]float64),
	}
}

// Enabled implements trace.Tracer.
func (t *TraceSink) Enabled() bool { return true }

// Emit implements trace.Tracer.
func (t *TraceSink) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindRun:
		t.lastCost = make(map[string]float64)
		t.lastTenant = make(map[string]map[string]float64)
	case trace.KindEnqueue:
		t.sim.Enqueued.Inc()
	case trace.KindLaunch:
		if c := t.sim.Launched[e.Task.Locality]; c != nil {
			c.Inc()
		}
	case trace.KindDone:
		t.sim.Done.Inc()
	case trace.KindKill:
		t.sim.Killed.With(e.Task.Reason).Inc()
	case trace.KindMove:
		t.sim.Moves.With(e.Move.Reason).Inc()
		t.sim.MovedMB.Add(e.Move.MB)
	case trace.KindFault:
		t.sim.Faults.With(e.Fault.Kind).Inc()
	case trace.KindEpoch:
		t.sched.ObserveEpoch(e.Epoch)
	case trace.KindSample:
		s := e.Sample
		t.sim.Clock.Set(e.T)
		t.sim.BusySlot.Set(s.BusySlotSec)
		t.sim.FreeSlots.Set(float64(s.FreeSlots))
		t.sim.LiveSlots.Set(float64(s.LiveSlots))
		t.sim.Tasks.With("running").Set(float64(s.Running))
		t.sim.Tasks.With("queued").Set(float64(s.Queued))
		t.sim.Tasks.With("pending").Set(float64(s.Pending))
		t.sim.Tasks.With("done").Set(float64(s.Done))
		for cat, uc := range map[string]int64{
			"cpu": s.CPUUC, "transfer": s.TransferUC, "placement": s.PlacementUC,
			"speculative": s.SpeculativeUC, "fault": s.FaultUC,
		} {
			if d := float64(uc) - t.lastCost[cat]; d > 0 {
				t.sim.Cost[cat].Add(d)
				t.lastCost[cat] = float64(uc)
			}
		}
		for _, tc := range s.Tenants {
			base := t.lastTenant[tc.Tenant]
			if base == nil {
				base = make(map[string]float64)
				t.lastTenant[tc.Tenant] = base
			}
			for cat, uc := range map[string]int64{
				"cpu": tc.CPUUC, "transfer": tc.TransferUC, "placement": tc.PlacementUC,
				"speculative": tc.SpeculativeUC, "fault": tc.FaultUC,
			} {
				if d := float64(uc) - base[cat]; d > 0 {
					t.sim.TenantCost.With(tc.Tenant, cat).Add(d)
					base[cat] = float64(uc)
				}
			}
		}
	}
}
