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

// book is where one job's money and CPU time land, resolved once when
// the job enters the workload (New, AddJob) so that the attempt path
// indexes slices instead of hashing names: the job's ledger line and
// its user, whose slot holds the user's CPU time and, when metrics are
// on, the live cost counters of the user's tenant. The tenant follows
// trace.Tenant, the rule the trace replay applies.
type book struct {
	ref  cost.Ref
	user int32
}

// userBook is one workload User's CPU time and, when metrics are on,
// the live cost counters of the user's tenant.
type userBook struct {
	name string
	cpu  float64
	seen bool // an attempt of the user's completed: UserCPU lists it
	line *obs.CostLine
}

// resolveSystem resolves the book of money no single job caused —
// background replication, block moves — whose user is -1 and whose cost
// counters are sysLine.
func (s *Sim) resolveSystem() {
	tenant := trace.Tenant(-1, "")
	s.sysBook = book{ref: s.Ledger.Resolve("", tenant), user: -1}
	if s.om != nil {
		s.sysLine = s.om.CostLine(tenant)
	}
}

// resolveBook resolves a job's book, adding its user on first sight.
func (s *Sim) resolveBook(job int) book {
	j := &s.W.Jobs[job]
	tenant := trace.Tenant(job, j.User)
	u, ok := s.userIdx[j.User]
	if !ok {
		u = int32(len(s.users))
		s.userIdx[j.User] = u
		ub := userBook{name: j.User}
		if s.om != nil {
			ub.line = s.om.CostLine(tenant)
		}
		s.users = append(s.users, ub)
	}
	return book{ref: s.Ledger.Resolve(j.Name, tenant), user: u}
}

// charge bills the ledger and the live cost counters, keeping them in
// exact agreement. It is the single chokepoint every dollar flows
// through: job indexes a workload job, whose book holds its lines, or is
// -1 for money no single job caused.
func (s *Sim) charge(cat cost.Category, job int, amount cost.Money) {
	b := &s.sysBook
	if job >= 0 {
		b = &s.books[job]
	}
	s.Ledger.ChargeRef(cat, b.ref, amount)
	if s.om != nil {
		line := s.sysLine
		if b.user >= 0 {
			line = s.users[b.user].line
		}
		s.om.ChargeLine(line, cat, int64(amount))
	}
}

// UserCPU returns the CPU-seconds each user's completed attempts have
// run so far, in a fresh map keyed by workload User (empty included),
// listing every user with a completed attempt.
func (s *Sim) UserCPU() map[string]float64 {
	out := make(map[string]float64)
	for _, u := range s.users {
		if u.seen {
			out[u.name] = u.cpu
		}
	}
	return out
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
