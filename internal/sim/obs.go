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
// allocates nothing (TestNoObsNoAllocs).

// simMetrics caches the metric handles the hot path bumps, with the
// label children resolved up front (obs vec lookups take a lock).
type simMetrics struct {
	m        *obs.SimMetrics
	launched [4]*obs.Counter // by Locality
	cost     map[cost.Category]*obs.Counter
	tenant   map[tenantCatKey]*obs.Counter // chargeback children, cached per (tenant, category)
	states   [4]*obs.Gauge                 // by TaskState
}

// tenantCatKey addresses one chargeback counter without allocating on
// lookup (a composite struct key, not a joined string).
type tenantCatKey struct {
	tenant string
	cat    cost.Category
}

func newSimMetrics(reg *obs.Registry) *simMetrics {
	om := &simMetrics{
		m:      obs.RegisterSim(reg),
		cost:   make(map[cost.Category]*obs.Counter),
		tenant: make(map[tenantCatKey]*obs.Counter),
	}
	for loc := NodeLocal; loc <= NoInput; loc++ {
		om.launched[loc] = om.m.Launched[loc.String()]
	}
	for _, cat := range []cost.Category{cost.CatCPU, cost.CatTransfer,
		cost.CatPlacement, cost.CatSpeculative, cost.CatFault} {
		om.cost[cat] = om.m.Cost[string(cat)]
	}
	for i, st := range []string{"pending", "queued", "running", "done"} {
		om.states[i] = om.m.Tasks.With(st)
	}
	return om
}

// tenantCounter resolves (caching) the chargeback counter for one
// tenant×category pair. The vec lookup locks the family, so only the
// first charge per pair pays it.
func (om *simMetrics) tenantCounter(tenant string, cat cost.Category) *obs.Counter {
	k := tenantCatKey{tenant, cat}
	c := om.tenant[k]
	if c == nil {
		c = om.m.TenantCost.With(tenant, string(cat))
		om.tenant[k] = c
	}
	return c
}

// Registry returns the run's live metrics registry, nil when metrics are
// disabled — schedulers register their own families through it (e.g.
// LiPS epoch histograms in Init).
func (s *Sim) Registry() *obs.Registry { return s.opts.Metrics }

// charge bills the ledger and mirrors the amount into the live
// per-category and per-tenant cost counters, keeping all three in exact
// agreement. It is the single chokepoint every dollar flows through:
// job indexes a workload job (whose Name keys the per-job ledger and
// whose User owns the chargeback), or is -1 for money no single job
// caused — background replication, plan-driven block moves — which
// lands on the reserved cost.UnattributedTenant.
func (s *Sim) charge(cat cost.Category, job int, amount cost.Money) {
	name, tenant := "", ""
	if job >= 0 {
		j := &s.W.Jobs[job]
		name, tenant = j.Name, j.User
	}
	if tenant == "" {
		tenant = cost.UnattributedTenant
	}
	s.Ledger.ChargeTenant(cat, name, tenant, amount)
	if s.om != nil {
		s.om.cost[cat].Add(float64(amount))
		s.om.tenantCounter(tenant, cat).Add(float64(amount))
	}
}

// setSampleGauges publishes one snapshot's task-state and slot numbers.
// emitSample calls it with the scan it just traced (so a sample event
// and the gauges at the same timestamp agree exactly); obsRefresh calls
// it when the run samples on a different cadence or not at all.
func (s *Sim) setSampleGauges(info *trace.SampleInfo) {
	if s.om == nil {
		return
	}
	s.om.m.Clock.Set(s.clock)
	s.om.m.BusySlot.Set(s.busySlotSec)
	s.om.m.FreeSlots.Set(float64(info.FreeSlots))
	s.om.m.LiveSlots.Set(float64(info.LiveSlots))
	s.om.states[Pending].Set(float64(info.Pending))
	s.om.states[Queued].Set(float64(info.Queued))
	s.om.states[Running].Set(float64(info.Running))
	s.om.states[Done].Set(float64(info.Done))
}

// obsRefresh re-derives the sampled gauges from simulator state.
func (s *Sim) obsRefresh() {
	if s.om == nil {
		return
	}
	var info trace.SampleInfo
	s.scanSample(&info)
	s.setSampleGauges(&info)
}
