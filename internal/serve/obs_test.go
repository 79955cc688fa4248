package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lips/internal/cluster"
	"lips/internal/obs"
	"lips/internal/sched"
)

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestJobTraceEndpoint walks jobs to completion and checks the
// /jobs/{id}/trace contract: ordered milestones, phases that telescope
// to the end-to-end latency, a positive exact cost, and the admitting
// epoch.
func TestJobTraceEndpoint(t *testing.T) {
	d, ts := newTestDaemon(t, Config{EpochSimSec: 60})
	const jobs = 6
	ids := make([]int, jobs)
	for i := range ids {
		id, code := submitOne(t, ts.URL, fmt.Sprintf("tenant-%d", i%3))
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		ids[i] = id
	}
	stepUntil(t, d, func(st *Stats) bool { return st.Jobs[StateDone] == jobs })

	for _, id := range ids {
		var tr JobTrace
		if code := getJSON(t, fmt.Sprintf("%s/jobs/%d/trace", ts.URL, id), &tr); code != http.StatusOK {
			t.Fatalf("trace %d: %d", id, code)
		}
		if tr.Outcome != obs.OutcomeDone || tr.State != StateDone {
			t.Errorf("job %d outcome %q state %q", id, tr.Outcome, tr.State)
		}
		if tr.SubmittedSim < 0 || tr.AdmittedSim < tr.SubmittedSim ||
			tr.PlannedSim < tr.AdmittedSim || tr.FirstLaunchSim < tr.PlannedSim ||
			tr.DoneSim < tr.FirstLaunchSim {
			t.Errorf("job %d milestones out of order: %+v", id, tr.Span)
		}
		if tr.AdmittedEpoch <= 0 {
			t.Errorf("job %d admitted epoch %d", id, tr.AdmittedEpoch)
		}
		if tr.CostUC <= 0 {
			t.Errorf("job %d cost %d µc", id, tr.CostUC)
		}
		var sum float64
		for _, ph := range tr.Phases {
			sum += ph.DurSim
		}
		if math.Abs(sum-tr.E2ESim) > 1e-9 || tr.E2ESim <= 0 {
			t.Errorf("job %d phases sum %g != e2e %g (%v)", id, sum, tr.E2ESim, tr.Phases)
		}
	}

	// Unknown and malformed ids answer 404/400, not 500.
	var e errorResponse
	if code := getJSON(t, ts.URL+"/jobs/9999/trace", &e); code != http.StatusNotFound {
		t.Errorf("trace of unknown id: %d", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/abc/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trace of bad id: %d", resp.StatusCode)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDebugEpochsRing runs a LiPS-backed daemon and checks the decision
// ring: admissions are attributed, deferral reasons stay inside the
// typed taxonomy, and each LiPS epoch surfaces once — its number, its
// solve counts and LP size, and its four phase durations, which lie
// inside the step's wall-clock, and the oracle's part of the solve.
func TestDebugEpochsRing(t *testing.T) {
	d, err := New(cluster.Paper20(0.5), sched.NewLiPS(60), obs.NewRegistry(),
		Config{EpochSimSec: 60, EpochWallInterval: time.Millisecond, AdmitPerEpoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	const jobs = 8
	for i := 0; i < jobs; i++ {
		if _, code := submitOne(t, ts.URL, fmt.Sprintf("t%d", i%2)); code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
	}
	stepUntil(t, d, func(st *Stats) bool { return st.Jobs[StateDone] == jobs })

	var er EpochsResponse
	if code := getJSON(t, ts.URL+"/debug/epochs", &er); code != http.StatusOK {
		t.Fatalf("/debug/epochs: %d", code)
	}
	if er.Total <= 0 || len(er.Epochs) == 0 {
		t.Fatalf("empty decision ring: total %d, %d entries", er.Total, len(er.Epochs))
	}
	valid := make(map[string]bool)
	for _, r := range obs.DeferralReasons {
		valid[r] = true
	}
	admitted, sawDeferral, sawSched, lastSched := 0, false, false, 0
	for _, dec := range er.Epochs {
		if dec.Epoch <= 0 || dec.SimEnd < dec.SimStart {
			t.Errorf("decision %+v has a bad frame", dec)
		}
		admitted += dec.AdmittedCount
		if len(dec.Admitted) > maxDecisionRefs || len(dec.Deferred) > maxDecisionRefs {
			t.Errorf("decision lists exceed the truncation bound: %+v", dec)
		}
		for _, df := range dec.Deferred {
			sawDeferral = true
			if !valid[df.Reason] {
				t.Errorf("deferral reason %q outside the taxonomy", df.Reason)
			}
		}
		v := dec.Sched
		if v == nil {
			continue
		}
		sawSched = true
		if v.Epoch <= lastSched {
			t.Errorf("decision %d repeats scheduler epoch %d (last shown %d)", dec.Epoch, v.Epoch, lastSched)
		}
		lastSched = v.Epoch
		if v.Status != "" {
			t.Errorf("decision %d: an optimal solve shows status %q", dec.Epoch, v.Status)
		}
		// Two jobs admitted a step: one pricing round each epoch.
		if v.Scheduler != "lips(e=60s)" || v.Solves != 1 || v.ColGenRounds != 1 {
			t.Errorf("decision %d: %s epoch shows %d solves, %d rounds", dec.Epoch, v.Scheduler, v.Solves, v.ColGenRounds)
		}
		// An epoch that plans has jobs, so rows and columns, and every
		// LiPS column meets at least its job row.
		if v.Rows <= 0 || v.Cols <= 0 || v.NNZ < v.Cols {
			t.Errorf("decision %d: LP size %d×%d with %d nonzeros", dec.Epoch, v.Rows, v.Cols, v.NNZ)
		}
		// Rounding a two-job plan takes a few microseconds, the resolution
		// of these fields; only the two long phases are surely non-zero.
		if v.Epoch <= 0 || v.BuildMS <= 0 || v.SolveMS <= 0 || v.RoundMS < 0 || v.ApplyMS < 0 {
			t.Errorf("decision %d misses a phase duration: %+v", dec.Epoch, v)
		}
		// The oracle prices between the master's solves, inside the solve.
		if v.OracleMS < 0 || v.OracleMS > v.SolveMS {
			t.Errorf("decision %d: oracle took %.3f ms of a %.3f ms solve", dec.Epoch, v.OracleMS, v.SolveMS)
		}
		// Each phase is truncated to the microsecond, like WallMS, so the
		// sum cannot exceed it by rounding.
		if sum := v.BuildMS + v.SolveMS + v.RoundMS + v.ApplyMS; sum > dec.WallMS+1e-9 {
			t.Errorf("decision %d: phases sum to %.3f ms inside a %.3f ms step", dec.Epoch, sum, dec.WallMS)
		}
	}
	if admitted != jobs {
		t.Errorf("decisions admitted %d jobs, want %d", admitted, jobs)
	}
	// AdmitPerEpoch=2 with 8 queued jobs forces fair-share deferrals.
	if !sawDeferral {
		t.Error("no deferral recorded despite AdmitPerEpoch < queue depth")
	}
	if !sawSched {
		t.Error("no LiPS epoch surfaced in the decisions")
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestReadyzFlipsOnDrain: /readyz answers 503 before Start, 200 while
// serving, and flips back to 503 the moment Shutdown begins draining —
// while /healthz stays 200 throughout.
func TestReadyzFlipsOnDrain(t *testing.T) {
	d, ts := newTestDaemon(t, Config{EpochSimSec: 60})
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("pre-Start /readyz = %d, want 503", code)
	}
	d.Start()
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("running /readyz = %d, want 200", code)
	}
	if _, code := submitOne(t, ts.URL, "a"); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	done := make(chan error, 1)
	go func() { done <- d.Shutdown() }()
	deadline := time.Now().Add(30 * time.Second)
	for get("/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped during drain")
		}
		time.Sleep(time.Millisecond)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d during drain — liveness must not flip", code)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain /readyz = %d, want 503", code)
	}
}

// TestProgressMidRunServeMode: the obs /progress endpoint serves a live
// snapshot while the daemon is mid-run — simulated time advancing and
// task counters moving.
func TestProgressMidRunServeMode(t *testing.T) {
	d, ts := newTestDaemon(t, Config{EpochSimSec: 60})
	d.Start()
	for i := 0; i < 4; i++ {
		if _, code := submitOne(t, ts.URL, "a"); code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
	}
	var p obs.Progress
	deadline := time.Now().Add(30 * time.Second)
	for p.TSec == 0 || p.Done == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("/progress never advanced: %+v", p)
		}
		if code := getJSON(t, ts.URL+"/progress", &p); code != http.StatusOK {
			t.Fatalf("/progress: %d", code)
		}
		time.Sleep(time.Millisecond)
	}
	if p.TotalUC <= 0 {
		t.Errorf("mid-run progress bills nothing: %+v", p)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantHistogramsMatchSpans reconciles the three per-tenant
// histograms against the span ring: one e2e observation per terminal
// span, one queue-wait per admission, one launch per launched job —
// and a hostile tenant name must come out escaped in the exposition.
func TestTenantHistogramsMatchSpans(t *testing.T) {
	d, ts := newTestDaemon(t, Config{EpochSimSec: 60})
	d.Start()
	weird := `ten\ant"` + "\n"
	counts := map[string]int{"alice": 3, "bob": 2, weird: 1}
	total := 0
	for tenant, n := range counts {
		for i := 0; i < n; i++ {
			resp, _ := postJSON(t, ts.URL+"/submit", SubmitRequest{
				Tenant: tenant, Archetype: "grep", InputMB: 128,
			})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %q: %d", tenant, resp.StatusCode)
			}
			total++
		}
	}
	waitStats(t, ts.URL, func(st *Stats) bool { return st.Jobs[StateDone] == total })

	spans := d.spans.Snapshot()
	perTenant := map[string]int{}
	for _, sp := range spans {
		if sp.Outcome != obs.OutcomeDone {
			t.Errorf("unexpected span outcome %q: %+v", sp.Outcome, sp)
		}
		perTenant[sp.Tenant]++
	}
	for tenant, n := range counts {
		if perTenant[tenant] != n {
			t.Errorf("tenant %q: %d spans, want %d", tenant, perTenant[tenant], n)
		}
	}

	var b strings.Builder
	if err := d.reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	escaped := `ten\\ant\"` + `\n`
	for tenant, n := range counts {
		label := tenant
		if tenant == weird {
			label = escaped
		}
		for _, fam := range []string{obs.MServeQueueWait, obs.MServeTenantLaunch, obs.MServeTenantE2E} {
			want := fmt.Sprintf("%s_count{tenant=\"%s\"} %d", fam, label, n)
			if !strings.Contains(expo, want) {
				t.Errorf("exposition missing %q", want)
			}
		}
	}
	want := fmt.Sprintf("%s{outcome=\"done\"} %d", obs.MServeSpans, total)
	if !strings.Contains(expo, want) {
		t.Errorf("exposition missing %q", want)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestShedSpansAndReasons: with the epoch loop stopped and the queue
// capped, overflow submissions shed with 429 and leave typed shed spans
// in the ring and on /debug/spans.
func TestShedSpansAndReasons(t *testing.T) {
	const cap = 8
	d, ts := newTestDaemon(t, Config{QueueCap: cap})
	for i := 0; i < 2*cap; i++ {
		submitOne(t, ts.URL, "a")
	}
	var sr SpansResponse
	if code := getJSON(t, ts.URL+"/debug/spans", &sr); code != http.StatusOK {
		t.Fatalf("/debug/spans: %d", code)
	}
	if sr.Total != cap || len(sr.Spans) != cap {
		t.Fatalf("%d shed spans (total %d), want %d", len(sr.Spans), sr.Total, cap)
	}
	for _, sp := range sr.Spans {
		if sp.Outcome != obs.OutcomeShed || sp.Reason != obs.ReasonQueueCap {
			t.Errorf("shed span %+v, want outcome=shed reason=queue-cap", sp)
		}
		if sp.DoneSim != sp.SubmittedSim {
			t.Errorf("shed span not zero-length: %+v", sp)
		}
	}
	var b strings.Builder
	if err := d.reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s{reason=\"queue-cap\"} %d", obs.MServeSheds, cap)
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q", want)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionSchedStatus checks a /debug/epochs entry names why its
// epoch's solve failed and has no status key when the solve ended optimal.
func TestDecisionSchedStatus(t *testing.T) {
	for _, status := range []string{"", "iteration limit"} {
		b, err := json.Marshal(EpochDecision{Sched: sched.EpochRecord{Epoch: 3, Status: status}.TraceInfo("lips", true)})
		if err != nil {
			t.Fatal(err)
		}
		want := `"status":"` + status + `"`
		if status == "" {
			if strings.Contains(string(b), `"status"`) {
				t.Errorf("optimal epoch shows a status: %s", b)
			}
		} else if !strings.Contains(string(b), want) {
			t.Errorf("failed epoch: %s lacks %s", b, want)
		}
	}
}
