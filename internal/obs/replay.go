package obs

import (
	"slices"

	"lips/internal/trace"
)

// TraceSink replays a structured run trace into a Registry through the
// same observers the live simulator and scheduler call — used by
// `lips-trace -metrics`, so an offline replay shows what a live scrape
// of the run would have. Lifecycle counters and the sampled gauges
// reproduce the live values; cost is counted per money-bearing event by
// trace.Charges, so it covers the whole run, not just up to the last
// sample. A charge's tenant comes from the run header's job→user table;
// a job the header does not list books its category only. A label
// outside internal/trace's tables counts nowhere. The
// wall-clock families fill only when the trace was recorded with timings
// enabled.
type TraceSink struct {
	sim   *SimMetrics
	sched *SchedMetrics
	run   *trace.RunInfo // the current run's header
}

// NewTraceSink returns a sink feeding reg. The sim, sched and lp
// families are registered up front so even an empty trace yields a complete,
// all-zero exposition.
func NewTraceSink(reg *Registry) *TraceSink {
	return &TraceSink{sim: RegisterSim(reg), sched: RegisterSched(reg)}
}

// Emit implements trace.Tracer.
func (t *TraceSink) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindRun:
		t.run = e.Run
	case trace.KindEnqueue:
		t.sim.Enqueue()
	case trace.KindLaunch:
		if i := slices.Index(trace.Localities[:], e.Task.Locality); i >= 0 {
			t.sim.LaunchAt(i)
		}
	case trace.KindDone:
		t.sim.Done()
	case trace.KindKill:
		if r, ok := trace.ParseKillReason(e.Task.Reason); ok {
			t.sim.Kill(r)
		}
	case trace.KindMove:
		if r, ok := trace.ParseMoveReason(e.Move.Reason); ok {
			t.sim.Move(r, e.Move.MB)
		}
	case trace.KindFault:
		if i := slices.Index(trace.FaultKinds[:], e.Fault.Kind); i >= 0 {
			t.sim.FaultAt(i)
		}
	case trace.KindEpoch:
		t.sched.ObserveEpoch(e.Epoch)
	case trace.KindSample:
		t.sim.Sample(e.T, e.Sample)
	}
	// An event the table cannot price (an unknown kill or move reason)
	// books nothing; -audit is where it is an error.
	chs, _ := trace.Charges(e)
	for _, ch := range chs {
		tenant, _ := t.run.JobTenant(ch.Job)
		t.sim.Charge(tenant, ch.Cat, ch.UC)
	}
}
