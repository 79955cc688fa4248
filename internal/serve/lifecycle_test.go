package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"lips/internal/cluster"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/workload"
)

// call drives one request through the handler in process — no listener,
// no goroutine — and returns the status code and body.
func call(h http.Handler, method, path string, body any) (int, []byte) {
	var rd bytes.Buffer
	if body != nil {
		_ = json.NewEncoder(&rd).Encode(body) // a bytes.Buffer does not fail
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, &rd))
	return w.Code, w.Body.Bytes()
}

// idle reports whether the daemon holds no work: nothing queued, nothing
// admitted and unfinished, no cancel waiting for an epoch.
func idle(d *Daemon) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queue) == 0 && len(d.active) == 0 && len(d.cancels) == 0
}

// firstInState returns the lowest record id in the given state, -1 if none.
func firstInState(d *Daemon, state string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, rec := range d.records {
		if rec.state == state {
			return rec.span.Job
		}
	}
	return -1
}

// stepCancelling is Step with a /cancel of record id (none if negative)
// landing between snapshot and simulate — where a live daemon's handlers
// race the epoch: a queued record the batch just took is cancelled
// mid-admission, an active one after this step's cancel list was cut.
func stepCancelling(d *Daemon, h http.Handler, id int) error {
	if id < 0 {
		return d.Step()
	}
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	snap := d.snapshot()
	if code, body := call(h, http.MethodPost, fmt.Sprintf("/cancel?id=%d", id), nil); code != http.StatusOK {
		return fmt.Errorf("mid-step cancel of %d: %d %s", id, code, body)
	}
	res, err := d.simulate(snap)
	if err != nil {
		return err
	}
	d.report(d.publish(snap, res, time.Time{}), res)
	return res.stepErr
}

// lifecycleFamilies are the lips_serve_ families the golden pins: every
// counter and gauge, and the histograms over simulated time. The two
// wall-clock histograms (submit latency, solve share) are left out.
var lifecycleFamilies = map[string]bool{
	obs.MServeQueueDepth: true, obs.MServeTenants: true, obs.MServeSimSeconds: true,
	obs.MServeEpochs: true, obs.MServeAdmissions: true, obs.MServeChurn: true,
	obs.MServeSpans: true, obs.MServeBurnRate: true, obs.MServeAlertTransitions: true,
	obs.MServeAlertsFiring: true, obs.MServeLaunchSeconds: true, obs.MServeQueueWait: true,
	obs.MServeTenantLaunch: true, obs.MServeTenantE2E: true,
}

var (
	seriesName = regexp.MustCompile(`^[a-z0-9_]+`)
	histSuffix = regexp.MustCompile(`_(bucket|sum|count)$`)
)

// lifecycleScenario drives one daemon through the scripted scenario and
// returns everything it reports afterwards, wall-clock fields zeroed.
func lifecycleScenario(t *testing.T, sch sim.Scheduler) string {
	t.Helper()
	reg := obs.NewRegistry()
	d, err := New(cluster.Paper20(0.5), sch, reg, Config{
		EpochSimSec: 60, AdmitPerEpoch: 3, QueueCap: 16,
		SLOE2ESec: 240, SLOQueueWaitSec: 60, SLOBudget: 0.25, SLOShortSec: 300, SLOLongSec: 600,
		// hog's first finished job spends its whole budget.
		Budgets: map[string]float64{"hog": 0.00001},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	post := func(path string, body any, want int) []byte {
		t.Helper()
		code, out := call(h, http.MethodPost, path, body)
		if code != want {
			t.Fatalf("POST %s: %d %s, want %d", path, code, out, want)
		}
		return out
	}
	submit := func(req SubmitRequest) int {
		t.Helper()
		var sr SubmitResponse
		if err := json.Unmarshal(post("/submit", req, http.StatusAccepted), &sr); err != nil {
			t.Fatal(err)
		}
		return sr.ID
	}
	cancel := func(id int) { post(fmt.Sprintf("/cancel?id=%d", id), nil, http.StatusOK) }
	mustStep := func() {
		t.Helper()
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		if err := sloReadingsAgree(d, h); err != nil {
			t.Fatalf("after epoch %d: %v", d.epochs, err)
		}
	}

	rng := rand.New(rand.NewSource(23))
	tenants := []string{"alice", "bob", "carol", "hog"}
	for epoch := 0; epoch < 30; epoch++ {
		for n := rng.Intn(4); n > 0; n-- {
			req := SubmitRequest{Tenant: tenants[rng.Intn(len(tenants))]}
			if rng.Intn(3) == 0 {
				// Long enough to be seen running across several epochs.
				req.Archetype, req.Tasks, req.CPUSecPerTask = "pi", 1+rng.Intn(6), float64(100*(1+rng.Intn(4)))
			} else {
				req.Archetype, req.InputMB = "grep", float64(64*(1+rng.Intn(10)))
			}
			// A full queue sheds these; the golden pins that too.
			if code, body := call(h, http.MethodPost, "/submit", req); code != http.StatusAccepted && code != http.StatusTooManyRequests {
				t.Fatalf("epoch %d: submit %+v: %d %s", epoch, req, code, body)
			}
		}
		switch epoch {
		case 3: // a job still in the queue
			cancel(submit(SubmitRequest{Tenant: "bob", Archetype: "grep", InputMB: 128}))
		case 6:
			id := firstInState(d, StateRunning)
			if id < 0 {
				t.Fatal("epoch 6: no running job to cancel")
			}
			cancel(id)
		case 9:
			// Taken off the queue, not yet in the simulator. A tenant with no
			// usage yet ranks first, so the batch is sure to hold the job.
			id := submit(SubmitRequest{Tenant: "dave", Name: "mid", Archetype: "pi", Tasks: 2, CPUSecPerTask: 500})
			if err := stepCancelling(d, h, id); err != nil {
				t.Fatal(err)
			}
			if err := sloReadingsAgree(d, h); err != nil {
				t.Fatalf("after the mid-admission cancel: %v", err)
			}
			if st := firstInState(d, StateCancelling); st != id {
				t.Fatalf("mid-admission cancel of %d: first cancelling record is %d", id, st)
			}
			continue
		case 10:
			post("/admin/churn?node=3&kind=down", nil, http.StatusOK)
		case 12:
			id := firstInState(d, StateDone)
			if id < 0 {
				t.Fatal("epoch 12: no finished job to cancel")
			}
			cancel(id)
		case 14:
			post("/admin/churn?node=3&kind=up", nil, http.StatusOK)
		case 16: // more tasks than the cluster has slots: no-capacity deferrals
			for i := 0; i < 4; i++ {
				submit(SubmitRequest{Tenant: "carol", Name: "wide", Archetype: "pi", Tasks: 24, CPUSecPerTask: 600})
			}
		case 20: // overflow the queue: typed shed spans and a shed count
			for i := 0; i < 16; i++ {
				call(h, http.MethodPost, "/submit", SubmitRequest{Tenant: "carol", Archetype: "grep", InputMB: 64})
			}
		}
		mustStep()
	}
	// Drain. What is still queued by now belongs to the tenant whose budget
	// ran out, and only a cancel takes it off the queue.
	for steps := 0; !idle(d); steps++ {
		if steps == 200 {
			t.Fatal("not idle 200 epochs after the last submission")
		}
		if id := firstInState(d, StateQueued); id >= 0 && steps >= 20 {
			cancel(id)
			continue
		}
		mustStep()
	}

	var out strings.Builder
	get := func(path string, v any) {
		t.Helper()
		code, body := call(h, http.MethodGet, path, nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, code, body)
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	line := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	d.mu.Lock()
	records := len(d.records)
	d.mu.Unlock()
	out.WriteString("-- status --\n")
	for id := 0; id < records; id++ {
		var js JobStatus
		get(fmt.Sprintf("/status?id=%d", id), &js)
		line(js)
	}
	out.WriteString("-- trace --\n")
	for id := 0; id < records; id++ {
		var tr JobTrace
		get(fmt.Sprintf("/jobs/%d/trace", id), &tr)
		line(tr)
	}
	out.WriteString("-- spans --\n")
	var spans SpansResponse
	get("/debug/spans", &spans)
	fmt.Fprintf(&out, "total %d\n", spans.Total)
	for _, sp := range spans.Spans {
		line(sp)
	}
	out.WriteString("-- stats --\n")
	var st Stats
	get("/stats", &st)
	line(st)
	out.WriteString("-- tenants --\n")
	var tr TenantsResponse
	get("/tenants", &tr)
	for _, row := range tr.Tenants {
		line(row)
	}
	out.WriteString("-- alerts --\n")
	var al AlertsResponse
	get("/alerts", &al)
	line(al)
	out.WriteString("-- epochs --\n")
	var er EpochsResponse
	get("/debug/epochs", &er)
	fmt.Fprintf(&out, "total %d\n", er.Total)
	for _, dec := range er.Epochs {
		dec.WallMS = 0
		if v := dec.Sched; v != nil { // its wall-clock keys drop out
			v.BuildMS, v.SolveMS, v.RoundMS, v.ApplyMS = 0, 0, 0, 0
			v.PricingMS, v.FactorMS, v.FtranMS, v.BtranMS, v.OracleMS = 0, 0, 0, 0, 0
		}
		line(dec)
	}
	out.WriteString("-- metrics --\n")
	var expo strings.Builder
	if err := reg.WriteProm(&expo); err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(expo.String(), "\n") {
		name := seriesName.FindString(l)
		if lifecycleFamilies[name] || lifecycleFamilies[histSuffix.ReplaceAllString(name, "")] {
			out.WriteString(l + "\n")
		}
	}
	if code, body := call(h, http.MethodGet, "/audit", nil); code != http.StatusOK {
		t.Errorf("/audit: %d %s", code, body)
	}
	return out.String()
}

// sloReadingsAgree holds what every Step leaves for the SLO readers:
// /alerts counts as firing exactly its firing entries and the firing gauge
// reads the same, and each tenant's burn gauge in each window is the
// largest burn /tenants/{tenant} shows for that window (no gauge for a
// tenant with no burn).
func sloReadingsAgree(d *Daemon, h http.Handler) error {
	get := func(path string, v any) error {
		code, body := call(h, http.MethodGet, path, nil)
		if code != http.StatusOK {
			return fmt.Errorf("GET %s: %d %s", path, code, body)
		}
		return json.Unmarshal(body, v)
	}
	var al AlertsResponse
	if err := get("/alerts", &al); err != nil {
		return err
	}
	firing := 0
	for _, a := range al.Alerts {
		if a.State == obs.AlertFiring {
			firing++
		}
	}
	if gauge, _ := d.reg.Value(obs.MServeAlertsFiring); al.Firing != firing || gauge != float64(firing) {
		return fmt.Errorf("/alerts says %d firing and lists %d; the firing gauge reads %g", al.Firing, firing, gauge)
	}
	var tr TenantsResponse
	if err := get("/tenants", &tr); err != nil {
		return err
	}
	for _, row := range tr.Tenants {
		var det TenantDetail
		if err := get("/tenants/"+url.PathEscape(row.Tenant), &det); err != nil {
			return err
		}
		for _, w := range []struct {
			window string
			burn   func(obs.Alert) float64
		}{
			{obs.WindowShort, func(a obs.Alert) float64 { return a.BurnShort }},
			{obs.WindowLong, func(a obs.Alert) float64 { return a.BurnLong }},
		} {
			want := 0.0
			for _, a := range det.Burn {
				want = max(want, w.burn(a))
			}
			got, ok := d.reg.Value(obs.MServeBurnRate, row.Tenant, w.window)
			if ok != (len(det.Burn) > 0) || got != want {
				return fmt.Errorf("tenant %q: %s burn gauge %g (present %v), /tenants burn %+v", row.Tenant, w.window, got, ok, det.Burn)
			}
		}
	}
	return nil
}

// TestLifecycleGolden pins everything the daemon reports about a scripted
// scenario — submits from four tenants (one outspending its budget), a
// cancel of a queued, a running, a mid-admission and a finished job, a
// node down and up, a shed burst, then drain — to
// testdata/lifecycle.golden, under Fair and under LiPS. There is no
// update flag: the file was recorded through the one-function epoch the
// lifecycle table replaced, and a change that claims the same behaviour
// leaves it alone.
func TestLifecycleGolden(t *testing.T) {
	var got strings.Builder
	for _, row := range []struct {
		name string
		sch  sim.Scheduler
	}{{"fair", sched.NewFair()}, {"lips", sched.NewLiPS(60)}} {
		fmt.Fprintf(&got, "== %s ==\n%s", row.name, lifecycleScenario(t, row.sch))
	}
	const path = "testdata/lifecycle.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s:%d\n- %s\n+ %s", path, i+1, wl, gl)
			if shown++; shown == 20 {
				t.Fatalf("%d lines now, %d in the golden; further differences not shown", len(g), len(w))
			}
		}
	}
}

// TestTransitionTable tries every pair of states against transitionLocked:
// a move the lifecycle table lists is made and counted; any other panics
// under go test and, as in production, is refused, logged at Error and
// counted, leaving the record and the per-state counts alone.
func TestTransitionTable(t *testing.T) {
	var logs lockedBuffer
	d, err := New(cluster.Paper20(0.5), sched.NewFair(), obs.NewRegistry(),
		Config{Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	states := []string{StateQueued, StateAdmitted, StateRunning, StateDone, StateCancelling, StateCancelled}
	refused := 0.0
	for _, from := range states {
		for _, to := range states {
			d.mu.Lock()
			rec := d.newRecordLocked("alice", "job", workload.Job{})
			d.countLocked(rec, -1)
			rec.state = from // a test's shortcut to every starting state
			d.countLocked(rec, +1)
			legal := slices.Contains(lifecycle[from], to)
			if !legal {
				d.strict = true
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s → %s did not panic under go test", from, to)
						}
					}()
					d.transitionLocked(rec, to, 60)
				}()
				d.strict = false
				refused++
			}
			d.transitionLocked(rec, to, 60)
			want := from
			if legal {
				want = to
			}
			if rec.state != want || (rec.span.Outcome != "") != (legal && terminal(to)) {
				t.Errorf("%s → %s: record is %s with outcome %q", from, to, rec.state, rec.span.Outcome)
			}
			if got := d.sm.IllegalTransitions.Value(); got != refused {
				t.Errorf("%s → %s: %g refusals counted, want %g", from, to, got, refused)
			}
			d.mu.Unlock()
			if err := checkStep(d); err != nil && !strings.Contains(err.Error(), "no step will cancel it") {
				t.Errorf("%s → %s: %v", from, to, err)
			}
		}
	}
	if msgs := logs.messages(t); len(msgs) != int(refused) || msgs[0] != "illegal job transition refused" {
		t.Errorf("%g refusals, logged %q", refused, msgs)
	}
}

// TestPublishAdmitError feeds publish a record the simulator refused at
// admission — unreachable through /submit while validateSubmit stands. The
// record ends cancelled like any other: one span, one e2e observation, one
// SLO observation, one cancelled count, nothing left active.
func TestPublishAdmitError(t *testing.T) {
	d, err := New(cluster.Paper20(0.5), sched.NewFair(), obs.NewRegistry(), Config{SLOE2ESec: 100})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	if code, body := call(h, http.MethodPost, "/submit", SubmitRequest{Tenant: "alice", Archetype: "grep", InputMB: 64}); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	snap := d.snapshot()
	if len(snap.batch) != 1 {
		t.Fatalf("batch of %d, want the one submission", len(snap.batch))
	}
	d.publish(snap, simResult{
		start: 0, end: 60, admitted: 1,
		jobs: []jobUpdate{{rec: snap.batch[0], admitErr: errors.New("sim: AddJob: refused")}},
	}, time.Time{})

	var tr JobTrace
	if code, body := call(h, http.MethodGet, "/jobs/0/trace", nil); code != http.StatusOK || json.Unmarshal(body, &tr) != nil {
		t.Fatalf("trace: %d %s", code, body)
	}
	if tr.State != StateCancelled || tr.Outcome != obs.OutcomeCancelled || tr.AdmittedSim != -1 || tr.DoneSim != 0 || tr.AdmittedEpoch != 0 {
		t.Errorf("trace of the refused record: %+v", tr)
	}
	if spans := d.spans.snapshot(); len(spans) != 1 || spans[0] != tr.Span {
		t.Errorf("span ring %+v, want the record's span once", spans)
	}
	if n := d.sm.TenantE2E.With("alice").Count(); n != 1 {
		t.Errorf("%d e2e observations, want 1", n)
	}
	if at := d.burn.Attainments("alice"); len(at) != 1 || at[0].Total != 1 {
		t.Errorf("SLO attainment %+v, want one e2e observation", at)
	}
	if c, s := d.jobs[StateCancelled], d.sm.Spans.With(obs.OutcomeCancelled).Value(); c != 1 || s != 1 {
		t.Errorf("%d cancelled jobs, %g cancelled spans, want 1 and 1", c, s)
	}
	if !idle(d) {
		t.Error("the refused record left work behind")
	}
	if err := checkStep(d); err != nil {
		t.Error(err)
	}
}
