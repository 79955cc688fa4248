package sim

import (
	"lips/internal/cost"
	"lips/internal/obs"
	"lips/internal/trace"
)

// Live metrics plumbing. Mirrors the tracing discipline in trace.go:
// s.om is nil when Options.Metrics is unset, every helper starts with
// that single pointer check, and no payload is built before the guard
// passes — so the disabled path costs one branch per call site and
// allocates nothing (TestNoObsNoAllocs). With metrics on, the helpers
// call obs.SimMetrics's observers, the ones obs.TraceSink calls when it
// replays the run's trace, and allocate nothing either
// (TestMetricsNoAllocs).

// Registry returns the run's live metrics registry, nil when metrics are
// disabled — schedulers register their own families through it (e.g.
// LiPS epoch histograms in Init).
func (s *Sim) Registry() *obs.Registry { return s.opts.Metrics }

// charge bills the ledger and the live cost counters, keeping them in
// exact agreement. It is the single chokepoint every dollar flows
// through: job indexes a workload job (whose Name keys the per-job
// ledger and whose User owns the chargeback), or is -1 for money no
// single job caused — background replication, block moves. The tenant
// follows trace.Tenant, the rule the trace replay applies.
func (s *Sim) charge(cat cost.Category, job int, amount cost.Money) {
	name, user := "", ""
	if job >= 0 {
		j := &s.W.Jobs[job]
		name, user = j.Name, j.User
	}
	tenant := trace.Tenant(job, user)
	s.Ledger.ChargeTenant(cat, name, tenant, amount)
	if s.om != nil {
		s.om.Charge(tenant, cat, int64(amount))
	}
}

// snapshot is one tick of the snapshot chain: a trace sample, or a gauge
// refresh when the run does not sample.
func (s *Sim) snapshot() {
	if s.snapSample {
		s.emitSample()
	} else {
		s.obsRefresh()
	}
}

// obsRefresh re-derives the sampled gauges from simulator state.
func (s *Sim) obsRefresh() {
	if s.om == nil {
		return
	}
	var info trace.SampleInfo
	s.scanSample(&info)
	s.om.Sample(s.clock, &info)
}
