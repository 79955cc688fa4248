package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"lips/internal/cluster"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/sim"
)

// step runs one serve epoch by hand: the lifecycle tests drive the daemon
// without its ticker, so every interleaving they see is the one they wrote.
func step(d *Daemon) error { return d.Step() }

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

// stepWithCancelMidAdmission runs one epoch and lands a /cancel for id
// between the epoch taking its batch and the simulator admitting it: the
// test holds the simulator lock so the epoch parks right after its
// snapshot, cancels, then lets go.
func stepWithCancelMidAdmission(t *testing.T, d *Daemon, h http.Handler, id int) {
	t.Helper()
	d.simMu.Lock()
	errc := make(chan error, 1)
	go func() { errc <- step(d) }()
	deadline := time.Now().Add(30 * time.Second)
	for taken := false; !taken; {
		if time.Now().After(deadline) {
			d.simMu.Unlock()
			t.Fatalf("the epoch never took job %d off the queue", id)
		}
		d.mu.Lock()
		taken = d.busy.Load()
		for _, q := range d.queue {
			taken = taken && q != id
		}
		d.mu.Unlock()
	}
	code, body := call(h, http.MethodPost, fmt.Sprintf("/cancel?id=%d", id), nil)
	d.simMu.Unlock()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil || code != http.StatusOK || sr.State != StateCancelling {
		t.Fatalf("mid-admission cancel of %d: %d %s, want 200 cancelling", id, code, body)
	}
}

// lifecycleFamilies are the lips_serve_ families the golden pins: every
// counter and gauge, and the histograms over simulated time. The two
// wall-clock histograms (submit latency, solve share) are left out.
var lifecycleFamilies = map[string]bool{
	obs.MServeQueueDepth: true, obs.MServeTenants: true, obs.MServeSimSeconds: true,
	obs.MServeEpochs: true, obs.MServeAdmissions: true, obs.MServeJobsDone: true,
	obs.MServeJobsCancelled: true, obs.MServeChurn: true, obs.MServeSheds: true,
	obs.MServeSpans: true, obs.MServeBurnRate: true, obs.MServeAlertTransitions: true,
	obs.MServeAlertsFiring: true, obs.MServeLaunchSeconds: true, obs.MServeQueueWait: true,
	obs.MServeTenantLaunch: true, obs.MServeTenantE2E: true,
}

var (
	seriesName = regexp.MustCompile(`^[a-z0-9_]+`)
	histSuffix = regexp.MustCompile(`_(bucket|sum|count)$`)
	// The solver one-liner carries wall-clock durations between "solve" and
	// the closing parenthesis; its counts on either side are deterministic.
	solverWall = regexp.MustCompile(`solve [^)]*\)`)
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
		if err := step(d); err != nil {
			t.Fatal(err)
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
			stepWithCancelMidAdmission(t, d, h, id)
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
		if v := dec.SchedView; v != nil {
			v.BuildMS, v.SolveMS, v.RoundMS, v.ApplyMS = 0, 0, 0, 0
			v.Solver = solverWall.ReplaceAllString(v.Solver, "solve (-)")
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
