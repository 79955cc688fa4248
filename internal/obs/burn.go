package obs

import (
	"fmt"
	"sort"
	"sync"
)

// SLO burn-rate engine: rolling-window error-budget accounting over the
// serve daemon's span stream, in simulated time. Each tenant×objective
// pair owns two windows (short and long); the burn rate is the window's
// violation fraction divided by the error budget, so burn 1.0 means the
// tenant is spending budget exactly as fast as the SLO allows and burn
// 10 means ten times too fast. An alert fires only when BOTH windows
// burn hot — the multi-window pattern that suppresses blips (short
// window recovers fast) without missing slow leaks (long window keeps
// the history).
//
// The engine is deliberately daemon-agnostic: Observe feeds it
// (tenant, kind, value) samples, Evaluate advances the pending →
// firing → resolved state machine at a given simulated instant and
// returns the transitions for logging and metrics. All iteration is
// sorted, so same-seed runs evaluate identically.

// SLO kinds — which span phase the objective bounds.
const (
	SLOE2E       = "e2e"        // submission → terminal latency
	SLOQueueWait = "queue-wait" // submission → admission latency
)

// SLOKinds is the closed vocabulary of objective kinds.
var SLOKinds = []string{SLOE2E, SLOQueueWait}

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

// SLO is one latency objective with its error budget and windows.
type SLO struct {
	Kind         string  // SLOE2E or SLOQueueWait
	ObjectiveSec float64 // an observation above this is a violation
	Budget       float64 // allowed violation fraction, e.g. 0.05
	ShortSec     float64 // short rolling window, simulated seconds
	LongSec      float64 // long rolling window, simulated seconds
}

// An alert trips when a window burns at or above fireBurn, and a firing
// alert clears when both burn at or below resolveBurn.
const (
	fireBurn    = 1
	resolveBurn = 0.5
)

// normalize fills defaults and validates the shape.
func (s SLO) normalize() SLO {
	if s.Kind != SLOE2E && s.Kind != SLOQueueWait {
		panic(fmt.Sprintf("obs: unknown SLO kind %q", s.Kind))
	}
	if s.ObjectiveSec <= 0 {
		panic(fmt.Sprintf("obs: SLO %s objective must be positive", s.Kind))
	}
	if s.Budget <= 0 || s.Budget >= 1 {
		s.Budget = 0.05
	}
	if s.ShortSec <= 0 {
		s.ShortSec = 300
	}
	if s.LongSec < s.ShortSec {
		s.LongSec = 6 * s.ShortSec
	}
	return s
}

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
	tenant string
	slo    SLO

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

// BurnEngine evaluates a set of SLOs across every tenant it observes.
// Safe for concurrent use.
type BurnEngine struct {
	mu       sync.Mutex
	slos     []SLO
	series   map[string]*sloSeries // tenant + "\xff" + kind
	resolved []Alert               // most recent resolved alerts, oldest first
}

// maxResolvedAlerts bounds the resolved-alert history on /alerts.
const maxResolvedAlerts = 64

// NewBurnEngine returns an engine evaluating the given objectives for
// every tenant that shows up in Observe. Objectives are normalized
// (defaults filled); at most one per kind is kept.
func NewBurnEngine(slos ...SLO) *BurnEngine {
	e := &BurnEngine{series: make(map[string]*sloSeries)}
	seen := map[string]bool{}
	for _, s := range slos {
		s = s.normalize()
		if !seen[s.Kind] {
			seen[s.Kind] = true
			e.slos = append(e.slos, s)
		}
	}
	return e
}

// Enabled reports whether any objective is configured.
func (e *BurnEngine) Enabled() bool { return e != nil && len(e.slos) > 0 }

func (e *BurnEngine) get(tenant, kind string) *sloSeries {
	key := tenant + "\xff" + kind
	s := e.series[key]
	if s == nil {
		for _, slo := range e.slos {
			if slo.Kind == kind {
				s = &sloSeries{
					tenant: tenant, slo: slo,
					short: newBurnWindow(slo.ShortSec),
					long:  newBurnWindow(slo.LongSec),
				}
				e.series[key] = s
				break
			}
		}
	}
	return s
}

// Observe feeds one latency sample for a tenant at simulated time t.
// Kinds with no configured objective are ignored.
func (e *BurnEngine) Observe(tenant, kind string, t, value float64) {
	if !e.Enabled() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.get(tenant, kind)
	if s == nil {
		return
	}
	bad := value > s.slo.ObjectiveSec
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
// retained for the /alerts history.
func (e *BurnEngine) Evaluate(t float64) []Alert {
	if !e.Enabled() {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.series))
	for k := range e.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Alert
	for _, k := range keys {
		s := e.series[k]
		s.lastShort = s.short.badFrac(t) / s.slo.Budget
		s.lastLong = s.long.badFrac(t) / s.slo.Budget
		switch s.state {
		case "":
			if s.lastShort >= fireBurn {
				s.state, s.sinceSim = AlertPending, t
				if s.lastLong >= fireBurn {
					s.state, s.firedSim = AlertFiring, t
					out = append(out, s.alert(AlertFiring, t))
				} else {
					out = append(out, s.alert(AlertPending, t))
				}
			}
		case AlertPending:
			if s.lastShort >= fireBurn && s.lastLong >= fireBurn {
				s.state, s.firedSim = AlertFiring, t
				out = append(out, s.alert(AlertFiring, t))
			} else if s.lastShort <= resolveBurn {
				// A pending alert that subsides never paged anyone;
				// it returns to ok silently.
				s.state = ""
			}
		case AlertFiring:
			if s.lastShort <= resolveBurn && s.lastLong <= resolveBurn {
				a := s.alert(AlertResolved, t)
				a.ResolvedSim = t
				s.state = ""
				e.resolved = append(e.resolved, a)
				if len(e.resolved) > maxResolvedAlerts {
					e.resolved = e.resolved[len(e.resolved)-maxResolvedAlerts:]
				}
				out = append(out, a)
			}
		}
	}
	return out
}

func (s *sloSeries) alert(state string, t float64) Alert {
	a := Alert{
		Tenant: s.tenant, SLO: s.slo.Kind, State: state,
		ObjectiveSec: s.slo.ObjectiveSec, Budget: s.slo.Budget,
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
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.series))
	for k := range e.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Alert
	for _, k := range keys {
		if s := e.series[k]; s.state != "" {
			out = append(out, s.alert(s.state, s.sinceSim))
		}
	}
	return append(out, e.resolved...)
}

// Firing returns how many alerts are currently firing.
func (e *BurnEngine) Firing() int {
	if !e.Enabled() {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, s := range e.series {
		if s.state == AlertFiring {
			n++
		}
	}
	return n
}

// BurnRates returns every series' burn rates from the last Evaluate,
// sorted by (tenant, slo) — the gauge refresh source.
func (e *BurnEngine) BurnRates() []Alert {
	if !e.Enabled() {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.series))
	for k := range e.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Alert, 0, len(keys))
	for _, k := range keys {
		s := e.series[k]
		out = append(out, Alert{
			Tenant: s.tenant, SLO: s.slo.Kind, State: s.state,
			BurnShort: s.lastShort, BurnLong: s.lastLong,
		})
	}
	return out
}

// Attainments returns the lifetime SLO attainment for one tenant, one
// entry per configured objective in registration order.
func (e *BurnEngine) Attainments(tenant string) []Attainment {
	if !e.Enabled() {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Attainment, 0, len(e.slos))
	for _, slo := range e.slos {
		a := Attainment{SLO: slo.Kind, ObjectiveSec: slo.ObjectiveSec, Ratio: 1}
		if s := e.series[tenant+"\xff"+slo.Kind]; s != nil {
			a.Good, a.Total = s.goodTotal, s.goodTotal+s.badTotal
			if a.Total > 0 {
				a.Ratio = float64(a.Good) / float64(a.Total)
			}
		}
		out = append(out, a)
	}
	return out
}
