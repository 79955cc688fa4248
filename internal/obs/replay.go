package obs

import "lips/internal/trace"

// TraceSink replays a structured run trace into a Registry through the
// same observers the live simulator and scheduler call — used by
// `lips-trace -metrics`, so an offline replay shows what a live scrape
// of the run would have. Lifecycle counters and the sampled gauges
// reproduce the live values; cost is counted per money-bearing event by
// trace.Charges, so it covers the whole run, not just up to the last
// sample. A charge's tenant comes from the run header's job→user table;
// a job the header does not list books its category only. The
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
		t.sim.Launch(e.Task.Locality)
	case trace.KindDone:
		t.sim.Done()
	case trace.KindKill:
		t.sim.Kill(e.Task.Reason)
	case trace.KindMove:
		t.sim.Move(e.Move.Reason, e.Move.MB)
	case trace.KindFault:
		t.sim.Fault(e.Fault.Kind)
	case trace.KindEpoch:
		t.sched.ObserveEpoch(e.Epoch)
	case trace.KindSample:
		t.sim.Sample(e.T, e.Sample)
	}
	// An event the table cannot price (an unknown kill or move reason)
	// still counts above; -audit is where it is an error.
	chs, _ := trace.Charges(e)
	for _, ch := range chs {
		tenant, _ := t.run.JobTenant(ch.Job)
		t.sim.Charge(tenant, ch.Cat, ch.UC)
	}
}
