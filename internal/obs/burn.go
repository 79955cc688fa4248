package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// SLO burn-rate engine: rolling-window error-budget accounting over the
// serve daemon's span stream, in simulated time. One policy holds every
// tenant: an error budget, a short and a long window, and a latency
// objective per kind. Each tenant×objective pair owns the two windows;
// the burn rate is the window's violation fraction divided by the error
// budget, so burn 1.0 means the tenant is spending budget exactly as
// fast as the SLO allows and burn 10 means ten times too fast. An alert
// fires only when BOTH windows burn hot — the multi-window pattern that
// suppresses blips (short window recovers fast) without missing slow
// leaks (long window keeps the history).
//
// The engine is deliberately daemon-agnostic: Observe feeds it
// (tenant, kind, value) samples, Evaluate advances the pending →
// firing → resolved state machine at a given simulated instant and
// returns the transitions for logging and metrics; every reader sees what
// the last Evaluate left. The series are kept in (tenant, kind) order, so
// same-seed runs evaluate identically.

// SLO kinds — which span phase the objective bounds.
const (
	SLOE2E       = "e2e"        // submission → terminal latency
	SLOQueueWait = "queue-wait" // submission → admission latency
)

// Alert states. A pending alert has a hot short window; it fires when
// the long window confirms; it resolves when both windows cool.
const (
	AlertPending  = "pending"
	AlertFiring   = "firing"
	AlertResolved = "resolved"
)

// Burn-rate window labels on the lips_serve_slo_burn_rate gauge.
const (
	WindowShort = "short"
	WindowLong  = "long"
)

// An alert trips when a window burns at or above fireBurn, and a firing
// alert clears when both burn at or below resolveBurn.
const (
	fireBurn    = 1
	resolveBurn = 0.5
)

// burnBuckets fixes the rolling-window resolution: the window is split
// into this many time buckets and slides one bucket at a time.
const burnBuckets = 12

// burnWindow is a bucketed rolling window of good/bad counts over
// simulated time. Buckets are reused ring-style, keyed by their epoch
// (floor(t / width)), so stale buckets age out without bookkeeping.
type burnWindow struct {
	width     float64
	epoch     [burnBuckets]int64
	good, bad [burnBuckets]int64
}

func newBurnWindow(spanSec float64) burnWindow {
	return burnWindow{width: spanSec / burnBuckets}
}

func (w *burnWindow) slot(t float64) (int, int64) {
	e := int64(t / w.width)
	i := int(e % burnBuckets)
	if w.epoch[i] != e {
		w.epoch[i], w.good[i], w.bad[i] = e, 0, 0
	}
	return i, e
}

func (w *burnWindow) observe(t float64, bad bool) {
	i, _ := w.slot(t)
	if bad {
		w.bad[i]++
	} else {
		w.good[i]++
	}
}

// badFrac returns the violation fraction across buckets still inside
// the window at time t (0 when the window is empty).
func (w *burnWindow) badFrac(t float64) float64 {
	cur := int64(t / w.width)
	var good, bad int64
	for i := 0; i < burnBuckets; i++ {
		if w.epoch[i] > cur-burnBuckets && w.epoch[i] <= cur && (w.good[i] > 0 || w.bad[i] > 0) {
			good += w.good[i]
			bad += w.bad[i]
		}
	}
	if good+bad == 0 {
		return 0
	}
	return float64(bad) / float64(good+bad)
}

// Alert is one tenant×SLO alert, as surfaced on /alerts.
type Alert struct {
	Tenant       string  `json:"tenant"`
	SLO          string  `json:"slo"`
	State        string  `json:"state"`
	ObjectiveSec float64 `json:"objective_sec"`
	Budget       float64 `json:"budget"`
	BurnShort    float64 `json:"burn_short"`
	BurnLong     float64 `json:"burn_long"`
	SinceSim     float64 `json:"since_sim"`
	FiredSim     float64 `json:"fired_sim,omitempty"`
	ResolvedSim  float64 `json:"resolved_sim,omitempty"`
}

// sloSeries is one tenant×SLO accounting line.
type sloSeries struct {
	tenant, kind string
	objective    float64 // seconds; an observation above it is a violation

	short, long         burnWindow
	goodTotal, badTotal int64 // lifetime attainment

	state               string // "" (ok), AlertPending, AlertFiring
	sinceSim, firedSim  float64
	lastShort, lastLong float64
}

// Attainment is a lifetime good/total summary for one tenant×SLO.
type Attainment struct {
	SLO          string  `json:"slo"`
	ObjectiveSec float64 `json:"objective_sec"`
	Good         int64   `json:"good"`
	Total        int64   `json:"total"`
	Ratio        float64 `json:"ratio"` // 1.0 when empty: no observations, no violations
}

// BurnEngine evaluates one SLO policy across every tenant it observes.
// It has no lock: its caller orders every call (the serve daemon makes
// each under its admission lock).
type BurnEngine struct {
	budget            float64            // allowed violation fraction
	shortSec, longSec float64            // the two rolling windows
	objectives        map[string]float64 // kind → objective seconds
	kinds             []string           // objectives' kinds, sorted
	series            []*sloSeries       // sorted by (tenant, kind)
	firing            int                // series firing as of the last Evaluate
	resolved          []Alert            // most recent resolved alerts, oldest first
}

// maxResolvedAlerts bounds the resolved-alert history on /alerts.
const maxResolvedAlerts = 64

// NewBurnEngine returns an engine holding every tenant that shows up in
// Observe to one policy: the error budget (a fraction in (0, 1)), the
// short and long windows in simulated seconds (0 < shortSec <= longSec),
// and an objective in seconds per kind (SLOE2E, SLOQueueWait); a kind
// whose objective is not positive is not evaluated.
func NewBurnEngine(budget, shortSec, longSec float64, objectives map[string]float64) *BurnEngine {
	if budget <= 0 || budget >= 1 || shortSec <= 0 || longSec < shortSec {
		panic(fmt.Sprintf("obs: SLO budget %g, windows %g/%g s", budget, shortSec, longSec))
	}
	e := &BurnEngine{budget: budget, shortSec: shortSec, longSec: longSec,
		objectives: make(map[string]float64)}
	for kind, sec := range objectives {
		if kind != SLOE2E && kind != SLOQueueWait {
			panic(fmt.Sprintf("obs: unknown SLO kind %q", kind))
		}
		if sec > 0 {
			e.objectives[kind] = sec
			e.kinds = append(e.kinds, kind)
		}
	}
	sort.Strings(e.kinds)
	return e
}

// Enabled reports whether any objective is configured.
func (e *BurnEngine) Enabled() bool { return e != nil && len(e.kinds) > 0 }

// find returns the index of the tenant's series of that kind in e.series,
// or where it would go, and whether it is there.
func (e *BurnEngine) find(tenant, kind string) (int, bool) {
	return slices.BinarySearchFunc(e.series, tenant, func(s *sloSeries, tenant string) int {
		return cmp.Or(strings.Compare(s.tenant, tenant), strings.Compare(s.kind, kind))
	})
}

// Observe feeds one latency sample for a tenant at simulated time t.
// Kinds with no configured objective are ignored.
func (e *BurnEngine) Observe(tenant, kind string, t, value float64) {
	if !e.Enabled() {
		return
	}
	sec, ok := e.objectives[kind]
	if !ok {
		return
	}
	i, ok := e.find(tenant, kind)
	if !ok {
		e.series = slices.Insert(e.series, i, &sloSeries{
			tenant: tenant, kind: kind, objective: sec,
			short: newBurnWindow(e.shortSec),
			long:  newBurnWindow(e.longSec),
		})
	}
	s := e.series[i]
	bad := value > s.objective
	s.short.observe(t, bad)
	s.long.observe(t, bad)
	if bad {
		s.badTotal++
	} else {
		s.goodTotal++
	}
}

// Evaluate advances every series' state machine to simulated time t and
// returns the transitions that happened, sorted by (tenant, slo). The
// returned alerts carry the state just entered; resolved ones are also
// retained for the /alerts history. Alerts, Firing and BurnRates read
// what it leaves until the next call.
func (e *BurnEngine) Evaluate(t float64) []Alert {
	if !e.Enabled() {
		return nil
	}
	var out []Alert
	e.firing = 0
	for _, s := range e.series {
		s.lastShort = s.short.badFrac(t) / e.budget
		s.lastLong = s.long.badFrac(t) / e.budget
		switch s.state {
		case "":
			if s.lastShort >= fireBurn {
				s.state, s.sinceSim = AlertPending, t
				if s.lastLong >= fireBurn {
					s.state, s.firedSim = AlertFiring, t
				}
				out = append(out, e.alert(s, s.state, t))
			}
		case AlertPending:
			if s.lastShort >= fireBurn && s.lastLong >= fireBurn {
				s.state, s.firedSim = AlertFiring, t
				out = append(out, e.alert(s, AlertFiring, t))
			} else if s.lastShort <= resolveBurn {
				// A pending alert that subsides never paged anyone;
				// it returns to ok silently.
				s.state = ""
			}
		case AlertFiring:
			if s.lastShort <= resolveBurn && s.lastLong <= resolveBurn {
				a := e.alert(s, AlertResolved, t)
				a.ResolvedSim = t
				s.state = ""
				e.resolved = append(e.resolved, a)
				if len(e.resolved) > maxResolvedAlerts {
					e.resolved = e.resolved[len(e.resolved)-maxResolvedAlerts:]
				}
				out = append(out, a)
			}
		}
		if s.state == AlertFiring {
			e.firing++
		}
	}
	return out
}

func (e *BurnEngine) alert(s *sloSeries, state string, t float64) Alert {
	a := Alert{
		Tenant: s.tenant, SLO: s.kind, State: state,
		ObjectiveSec: s.objective, Budget: e.budget,
		BurnShort: s.lastShort, BurnLong: s.lastLong,
		SinceSim: s.sinceSim,
	}
	if state == AlertFiring || state == AlertResolved {
		a.FiredSim = s.firedSim
	}
	return a
}

// Alerts returns the active (pending and firing) alerts followed by the
// retained resolved history, active ones sorted by (tenant, slo).
func (e *BurnEngine) Alerts() []Alert {
	if !e.Enabled() {
		return nil
	}
	var out []Alert
	for _, s := range e.series {
		if s.state != "" {
			out = append(out, e.alert(s, s.state, s.sinceSim))
		}
	}
	return append(out, e.resolved...)
}

// Firing returns how many alerts the last Evaluate left firing.
func (e *BurnEngine) Firing() int { return e.firing }

// BurnRates returns every series' burn rates from the last Evaluate,
// sorted by (tenant, slo) — the gauge refresh source.
func (e *BurnEngine) BurnRates() []Alert {
	if !e.Enabled() {
		return nil
	}
	out := make([]Alert, 0, len(e.series))
	for _, s := range e.series {
		out = append(out, Alert{
			Tenant: s.tenant, SLO: s.kind, State: s.state,
			BurnShort: s.lastShort, BurnLong: s.lastLong,
		})
	}
	return out
}

// Attainments returns the lifetime SLO attainment for one tenant, one
// entry per configured objective, sorted by kind.
func (e *BurnEngine) Attainments(tenant string) []Attainment {
	if !e.Enabled() {
		return nil
	}
	out := make([]Attainment, 0, len(e.kinds))
	for _, kind := range e.kinds {
		a := Attainment{SLO: kind, ObjectiveSec: e.objectives[kind], Ratio: 1}
		if i, ok := e.find(tenant, kind); ok {
			s := e.series[i]
			a.Good, a.Total = s.goodTotal, s.goodTotal+s.badTotal
			if a.Total > 0 {
				a.Ratio = float64(a.Good) / float64(a.Total)
			}
		}
		out = append(out, a)
	}
	return out
}
