package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lips/internal/cluster"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/sim"
)

func newTestDaemon(t *testing.T, cfg Config) (*Daemon, *httptest.Server) {
	t.Helper()
	if cfg.EpochWallInterval == 0 {
		cfg.EpochWallInterval = time.Millisecond
	}
	d, err := New(cluster.Paper20(0.5), sched.NewFair(), obs.NewRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	return d, ts
}

// lockedBuffer is a log sink the epoch goroutine and the test may share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// messages returns the msg field of every JSON record written so far.
func (l *lockedBuffer) messages(t *testing.T) []string {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(l.b.String()), "\n") {
		var rec struct{ Msg string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		msgs = append(msgs, rec.Msg)
	}
	return msgs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.Bytes()
}

func submitOne(t *testing.T, url, tenant string) (int, int) {
	t.Helper()
	resp, body := postJSON(t, url+"/submit", SubmitRequest{
		Tenant: tenant, Archetype: "grep", InputMB: 128,
	})
	var sr SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("bad submit response %q: %v", body, err)
		}
		return sr.ID, resp.StatusCode
	}
	return -1, resp.StatusCode
}

func waitStats(t *testing.T, url string, ok func(*Stats) bool) *Stats {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ok(&st) {
			return &st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("stats condition never met")
	return nil
}

// stepUntil steps the daemon by hand until /stats satisfies ok: the
// outcome a live loop would reach, without a ticker to wait on.
func stepUntil(t *testing.T, d *Daemon, ok func(*Stats) bool) *Stats {
	t.Helper()
	h := d.Handler()
	for epochs := 0; epochs < 1000; epochs++ {
		var st Stats
		if code, body := call(h, http.MethodGet, "/stats", nil); code != http.StatusOK || json.Unmarshal(body, &st) != nil {
			t.Fatalf("/stats: %d %s", code, body)
		}
		if ok(&st) {
			return &st
		}
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("stats condition not met after 1000 epochs")
	return nil
}

// TestDaemonLifecycle walks one job through the full submit → admitted →
// running → done pipeline over the HTTP API.
func TestDaemonLifecycle(t *testing.T) {
	var logs lockedBuffer
	d, ts := newTestDaemon(t, Config{EpochSimSec: 60,
		Logger: slog.New(slog.NewJSONHandler(&logs, nil))})

	id, code := submitOne(t, ts.URL, "alice")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	stepUntil(t, d, func(st *Stats) bool { return st.Jobs[StateDone] == 1 })

	resp, body := postJSON(t, fmt.Sprintf("%s/status?id=%d", ts.URL, id), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.State != StateDone || js.DoneTasks != 2 || js.DoneSim <= js.FirstLaunchSim {
		t.Errorf("final status: %+v", js)
	}
	if js.FirstLaunchSim < js.SubmittedSim {
		t.Errorf("launched at %g before submission at %g", js.FirstLaunchSim, js.SubmittedSim)
	}
	d.Start()
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// The JSON log stream records the lifecycle at info level, in order.
	msgs, next := logs.messages(t), 0
	for _, want := range []string{"epoch loop started", "drain started", "daemon stopped"} {
		for next < len(msgs) && msgs[next] != want {
			next++
		}
		if next == len(msgs) {
			t.Errorf("lifecycle record %q missing or out of order in %q", want, msgs)
		}
	}

	// Post-drain the daemon answers 503 with Retry-After.
	resp, _ = postJSON(t, ts.URL+"/submit", SubmitRequest{Tenant: "x", Archetype: "grep", InputMB: 64})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining submit: %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestNewRefusesEmptyCluster: a cluster with nowhere to run a task or
// to put its input is refused at construction — the first submission
// would otherwise divide by zero in the epoch goroutine.
func TestNewRefusesEmptyCluster(t *testing.T) {
	for _, row := range []struct {
		c    *cluster.Cluster
		want string
	}{
		{cluster.Random(rand.New(rand.NewSource(1)), cluster.RandomSpec{Nodes: 0}), "serve: cluster has no nodes"},
		{&cluster.Cluster{Nodes: []cluster.Node{{Slots: 1, ECU: 1}}}, "serve: cluster has no stores"},
	} {
		_, err := New(row.c, sched.NewFair(), obs.NewRegistry(), Config{})
		if err == nil || err.Error() != row.want {
			t.Errorf("New on %d nodes, %d stores: error %v, want %q",
				len(row.c.Nodes), len(row.c.Stores), err, row.want)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	d, ts := newTestDaemon(t, Config{})
	defer func() { _ = d.Shutdown() }()
	for _, req := range []SubmitRequest{
		{Archetype: "grep", InputMB: 64},                        // no tenant
		{Tenant: "a", Archetype: "nosuch", InputMB: 64},         // unknown archetype
		{Tenant: "a", Archetype: "grep"},                        // input archetype without input
		{Tenant: "a", Archetype: "grep", InputMB: 64, Tasks: 3}, // tasks on an input archetype
		{Tenant: "a", Archetype: "pi"},                          // pi without tasks
		{Tenant: "a", Archetype: "grep", InputMB: 64, AccessFrac: 2},
		{Tenant: "a", Archetype: "grep", InputMB: 1e12},                  // 1.5e10 blocks behind an int32 index
		{Tenant: "a", Archetype: "grep", InputMB: 64*maxTasksPerJob + 1}, // one block over the cap
		{Tenant: "a", Archetype: "pi", Tasks: 2e9},
		{Tenant: "a", Archetype: "pi", Tasks: maxTasksPerJob + 1},
		{Tenant: "a", Archetype: "pi", Tasks: maxTasksPerJob, CPUSecPerTask: 1e305}, // demand +Inf in the LP
		{Tenant: "a", Archetype: "pi", Tasks: 1, CPUSecPerTask: 2 * maxCPUSecPerTask},
		{Tenant: strings.Repeat("t", maxNameLen+1), Archetype: "grep", InputMB: 64},
		{Tenant: "a", Name: strings.Repeat("n", maxNameLen+1), Archetype: "grep", InputMB: 64},
		{Tenant: "a", Name: strings.Repeat("n", maxSubmitBody), Archetype: "grep", InputMB: 64}, // body over the limit
	} {
		resp, _ := postJSON(t, ts.URL+"/submit", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: got %d, want 400", req, resp.StatusCode)
		}
	}
	if _, code := submitOne(t, ts.URL, "a"); code != http.StatusAccepted {
		t.Errorf("valid submit: %d", code)
	}
	for _, req := range []SubmitRequest{ // exactly at the caps
		{Tenant: strings.Repeat("t", maxNameLen), Name: strings.Repeat("n", maxNameLen), Archetype: "grep", InputMB: 64 * maxTasksPerJob},
		{Tenant: "a", Archetype: "pi", Tasks: maxTasksPerJob, CPUSecPerTask: maxCPUSecPerTask},
	} {
		if resp, _ := postJSON(t, ts.URL+"/submit", req); resp.StatusCode != http.StatusAccepted {
			t.Errorf("at the caps (tasks=%d input_mb=%g): got %d, want 202", req.Tasks, req.InputMB, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/status?id=99", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status of unknown id: %d", resp.StatusCode)
	}

	// At the tenant cap a known tenant is still served and an unseen one
	// is refused: each tenant mints metric and ledger children for good.
	d.mu.Lock()
	for i := 0; len(d.tenantJobs) < maxTenants; i++ {
		d.tenantJobs[fmt.Sprintf("filler-%d", i)] = map[string]int{}
	}
	d.mu.Unlock()
	for _, row := range []struct {
		tenant string
		want   int
	}{{"a", http.StatusAccepted}, {"one-too-many", http.StatusBadRequest}} {
		if _, code := submitOne(t, ts.URL, row.tenant); code != row.want {
			t.Errorf("at the tenant cap, tenant %q: got %d, want %d", row.tenant, code, row.want)
		}
	}
}

// TestCPUCapJobPlans: a pi job at both per-job caps is admitted and
// planned by LiPS without an error. Past the CPU cap its demand could
// overflow to +Inf, which the LP refuses with a panic in the epoch loop.
func TestCPUCapJobPlans(t *testing.T) {
	l := sched.NewLiPS(60)
	d, err := New(cluster.Paper20(0.5), l, obs.NewRegistry(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	req := SubmitRequest{Tenant: "a", Archetype: "pi", Tasks: maxTasksPerJob, CPUSecPerTask: maxCPUSecPerTask}
	if code, body := call(d.Handler(), http.MethodPost, "/submit", req); code != http.StatusAccepted {
		t.Fatalf("submit at the caps: %d %s", code, body)
	}
	for i := 0; i < 2; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if l.Epochs == 0 || l.Err != nil {
		t.Fatalf("LiPS ran %d epochs, error %v", l.Epochs, l.Err)
	}
}

// TestBackpressureExactQueueCap is the threshold property test: with the
// epoch loop stopped (nothing drains, no epoch is ever busy), exactly
// QueueCap submissions are accepted and every one beyond that is shed
// with 429 + Retry-After — never an error, never a hang.
func TestBackpressureExactQueueCap(t *testing.T) {
	const cap = 32
	d, ts := newTestDaemon(t, Config{QueueCap: cap})
	// No d.Start(): the queue can only grow, so the accept count is the
	// threshold itself.
	accepted, rejected := 0, 0
	for i := 0; i < 3*cap; i++ {
		_, code := submitOne(t, ts.URL, fmt.Sprintf("t%d", i%5))
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("submission %d: status %d", i, code)
		}
	}
	if accepted != cap || rejected != 2*cap {
		t.Errorf("accepted %d rejected %d, want exactly %d/%d", accepted, rejected, cap, 2*cap)
	}
	// The shed load is visible in lips_serve_admission_total, and the
	// queue gauge sits at the cap.
	for decision, want := range map[string]float64{"accepted": cap, "rejected": 2 * cap} {
		if got, _ := d.reg.Value(obs.MServeAdmissions, decision); got != want {
			t.Errorf("%s{decision=%q} = %g, want %g", obs.MServeAdmissions, decision, got, want)
		}
	}
	if got, _ := d.reg.Value(obs.MServeQueueDepth); got != cap {
		t.Errorf("%s = %g, want %d", obs.MServeQueueDepth, got, cap)
	}
	resp, _ := postJSON(t, ts.URL+"/submit", SubmitRequest{Tenant: "t", Archetype: "grep", InputMB: 64})
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Shutdown of a never-started daemon must return, not deadlock on the
	// missing epoch loop.
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressureSolverBusy pins the other shedding arm: with the loop
// stopped and the queue exactly half full, a submission is shed with 429 +
// Retry-After and reason solver-backpressure while an epoch is marked
// busy, and accepted once it is not.
func TestBackpressureSolverBusy(t *testing.T) {
	const cap = 16
	d, ts := newTestDaemon(t, Config{QueueCap: cap})
	d.busy.Store(true)
	for i := 0; i < cap/2; i++ {
		if _, code := submitOne(t, ts.URL, "a"); code != http.StatusAccepted {
			t.Fatalf("submission %d below half of the queue: status %d", i, code)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/submit", SubmitRequest{Tenant: "a", Archetype: "grep", InputMB: 64})
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("busy at half queue: status %d Retry-After %q, want 429 with one",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	var sr SpansResponse
	if code := getJSON(t, ts.URL+"/debug/spans", &sr); code != http.StatusOK {
		t.Fatalf("/debug/spans: %d", code)
	}
	if len(sr.Spans) != 1 || sr.Spans[0].Outcome != obs.OutcomeShed || sr.Spans[0].Reason != obs.ReasonSolverBackpressure {
		t.Errorf("shed spans %+v, want one with outcome=shed reason=solver-backpressure", sr.Spans)
	}
	d.busy.Store(false)
	if _, code := submitOne(t, ts.URL, "a"); code != http.StatusAccepted {
		t.Errorf("idle at half queue: status %d, want 202", code)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestRacedSubmitCancelStatus hammers the API from many goroutines while
// the epoch loop runs full tilt — the -race gate for the daemon's lock
// discipline — then verifies the terminal bookkeeping is coherent.
func TestRacedSubmitCancelStatus(t *testing.T) {
	d, ts := newTestDaemon(t, Config{
		EpochSimSec: 60, QueueCap: 10000, AdmitPerEpoch: 16,
		// Exercise the burn engine and budget gate under the same race.
		SLOE2ESec: 30, SLOQueueWaitSec: 30,
		Budgets: map[string]float64{"tenant-0": 1000},
	})
	d.Start()

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	cancelled := make([]int, workers) // per-worker count of cancel attempts
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wk)))
			tenant := fmt.Sprintf("tenant-%d", wk%3)
			for i := 0; i < perWorker; i++ {
				id, code := submitOne(t, ts.URL, tenant)
				if code != http.StatusAccepted {
					t.Errorf("worker %d: submit status %d", wk, code)
					return
				}
				// Race status reads and cancels against the live epoch loop.
				resp, _ := postJSON(t, fmt.Sprintf("%s/status?id=%d", ts.URL, id), nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status: %d", resp.StatusCode)
				}
				if rng.Intn(3) == 0 {
					resp, _ := postJSON(t, fmt.Sprintf("%s/cancel?id=%d", ts.URL, id), nil)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("cancel: %d", resp.StatusCode)
					}
					cancelled[wk]++
				}
				// Race the chargeback and alerting reads against the loop.
				switch rng.Intn(4) {
				case 0:
					var tr TenantsResponse
					if code := getJSON(t, ts.URL+"/tenants", &tr); code != http.StatusOK {
						t.Errorf("/tenants: %d", code)
					}
				case 1:
					var ar AuditResponse
					if code := getJSON(t, ts.URL+"/audit", &ar); code != http.StatusOK || !ar.OK {
						t.Errorf("/audit: %d ok=%v err=%q", code, ar.OK, ar.Error)
					}
				case 2:
					var al AlertsResponse
					if code := getJSON(t, ts.URL+"/alerts", &al); code != http.StatusOK {
						t.Errorf("/alerts: %d", code)
					}
				}
			}
		}(wk)
	}
	wg.Wait()

	total := workers * perWorker
	st := waitStats(t, ts.URL, func(st *Stats) bool {
		settled := st.Jobs[StateDone] + st.Jobs[StateCancelled]
		return settled == total && st.QueueDepth == 0
	})
	wantCancels := 0
	for _, c := range cancelled {
		wantCancels += c
	}
	// Every cancel eventually lands in cancelled (cancelling a job that
	// happened to finish first leaves it done — both are terminal).
	if st.Jobs[StateCancelled] > wantCancels {
		t.Errorf("%d cancelled records from %d cancel calls", st.Jobs[StateCancelled], wantCancels)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// cancelAtLastTask is the Fair scheduler plus a callback fired from inside
// the simulator the moment any job's last task finishes: mid-epoch, after
// the epoch took its cancel list and before it publishes.
type cancelAtLastTask struct {
	*sched.Fair
	fire  func()
	fired bool
}

func (c *cancelAtLastTask) OnTaskDone(s *sim.Sim, job, task int) {
	c.Fair.OnTaskDone(s, job, task)
	if pending, queued, running, _ := s.JobStateCounts(job); !c.fired && pending+queued+running == 0 {
		c.fired = true
		c.fire()
	}
}

// TestCancelRacingLastTaskEndsDone pins the race TestRacedSubmitCancelStatus
// used to lose a few times in a hundred: a /cancel that lands in the very
// epoch the job's last task finishes. The cancel is a no-op on the finished
// sim job, so the record must publish done — not sit in cancelling, and in
// d.active, until every later Shutdown burns its whole DrainTimeout. The
// epochs are stepped by hand, so the interleaving is exact.
func TestCancelRacingLastTaskEndsDone(t *testing.T) {
	hook := &cancelAtLastTask{Fair: sched.NewFair()}
	d, err := New(cluster.Paper20(0.5), hook, obs.NewRegistry(), Config{
		EpochSimSec: 60, EpochWallInterval: time.Millisecond, DrainTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	id, code := submitOne(t, ts.URL, "alice")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	hook.fire = func() {
		resp, body := postJSON(t, fmt.Sprintf("%s/cancel?id=%d", ts.URL, id), nil)
		var sr SubmitResponse
		if err := json.Unmarshal(body, &sr); err != nil || resp.StatusCode != http.StatusOK || sr.State != StateCancelling {
			t.Errorf("mid-epoch cancel: %d %q (%v), want 200 cancelling", resp.StatusCode, body, err)
		}
	}

	state := func() (string, int) {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.records[id].state, len(d.active)
	}
	for i := 0; i < 20; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		if st, _ := state(); hook.fired && st != StateCancelling {
			break
		}
	}
	if !hook.fired {
		t.Fatal("the job never finished; the cancel was never sent")
	}
	if st, active := state(); st != StateDone || active != 0 {
		t.Fatalf("record is %q with %d active, want done and none active", st, active)
	}

	d.Start()
	start := time.Now()
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("Shutdown took %v of a %v DrainTimeout with nothing left to drain", took, d.cfg.DrainTimeout)
	}
}

// submitIn submits one grep job in process and returns its record ID.
func submitIn(t *testing.T, h http.Handler) int {
	t.Helper()
	code, body := call(h, http.MethodPost, "/submit", SubmitRequest{Tenant: "alice", Archetype: "grep", InputMB: 128})
	var sr SubmitResponse
	if code != http.StatusAccepted || json.Unmarshal(body, &sr) != nil {
		t.Fatalf("submit: %d %s", code, body)
	}
	return sr.ID
}

// statusIn reads one record's /status in process.
func statusIn(t *testing.T, h http.Handler, id int) JobStatus {
	t.Helper()
	var js JobStatus
	if code, body := call(h, http.MethodGet, fmt.Sprintf("/status?id=%d", id), nil); code != http.StatusOK || json.Unmarshal(body, &js) != nil {
		t.Fatalf("status %d: %d %s", id, code, body)
	}
	return js
}

// TestMidEpochSubmissionWaitsNoSimulatedTime: a submission accepted while
// an epoch runs cannot join it, so its clock is the next epoch's start and
// it reports no queue wait. Stamped with the running epoch's clock, it
// would wait one epoch of simulated time more than a submission accepted
// a moment later, once the epoch had published — a wait that depended on
// how long the epoch's solve took.
func TestMidEpochSubmissionWaitsNoSimulatedTime(t *testing.T) {
	hook := &cancelAtLastTask{Fair: sched.NewFair()}
	d, err := New(cluster.Paper20(0.5), hook, obs.NewRegistry(), Config{EpochSimSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	submitIn(t, h)
	mid := -1
	hook.fire = func() { mid = submitIn(t, h) }
	for i := 0; i < 20 && !hook.fired; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if mid < 0 {
		t.Fatal("no epoch finished a job, so nothing was submitted mid-epoch")
	}
	d.mu.Lock()
	clock := d.simNowLocked()
	d.mu.Unlock()
	if js := statusIn(t, h, mid); js.SubmittedSim != clock {
		t.Errorf("mid-epoch submission stamped at %g, want the published clock %g", js.SubmittedSim, clock)
	}
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if js := statusIn(t, h, mid); js.State == StateQueued || js.AdmittedSim != js.SubmittedSim {
		t.Errorf("mid-epoch submission %s, submitted at %g and admitted at %g: want admitted with no wait", js.State, js.SubmittedSim, js.AdmittedSim)
	}
}

// TestSubmissionPastTheCutWaitsForTheNextEpoch: once the loop's tick has
// passed, the epoch it starts admits only what was accepted before it,
// however late the epoch goroutine wakes. A later submission is already
// stamped with the next epoch's clock, is no deferral of this epoch, and
// the next epoch admits it with no wait.
func TestSubmissionPastTheCutWaitsForTheNextEpoch(t *testing.T) {
	d, err := New(cluster.Paper20(0.5), sched.NewFair(), obs.NewRegistry(), Config{EpochSimSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	before := submitIn(t, h)
	d.setCut(time.Now()) // the tick fires
	after := submitIn(t, h)
	if b, a := statusIn(t, h, before), statusIn(t, h, after); b.SubmittedSim != 0 || a.SubmittedSim != 60 {
		t.Fatalf("submitted at %g and %g, want 0 before the tick and 60 after it", b.SubmittedSim, a.SubmittedSim)
	}
	if err := d.step(time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if b, a := statusIn(t, h, before), statusIn(t, h, after); b.State == StateQueued || a.State != StateQueued {
		t.Fatalf("after the first epoch: %s before the tick, %s after it; want admitted and queued", b.State, a.State)
	}
	var epochs EpochsResponse
	if code, body := call(h, http.MethodGet, "/debug/epochs", nil); code != http.StatusOK || json.Unmarshal(body, &epochs) != nil {
		t.Fatalf("/debug/epochs: %d %s", code, body)
	}
	if n := len(epochs.Epochs); n != 1 || epochs.Epochs[0].AdmittedCount != 1 || epochs.Epochs[0].DeferredCount != 0 {
		t.Errorf("epoch decisions %+v, want one admitting one job and deferring none", epochs.Epochs)
	}
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if a := statusIn(t, h, after); a.State == StateQueued || a.AdmittedSim != 60 {
		t.Errorf("after the second epoch the late submission is %s, admitted at %g; want admitted at 60", a.State, a.AdmittedSim)
	}
}

// TestLiveLoopAdmitsWithoutWaitBelowTheCap submits against a running
// 1 ms loop, so submissions land before, inside and after epochs. With
// the admission cap never reached, every job must be admitted at the
// clock it was stamped with, wherever its submission fell.
func TestLiveLoopAdmitsWithoutWaitBelowTheCap(t *testing.T) {
	d, err := New(cluster.Paper20(0.5), sched.NewFair(), obs.NewRegistry(), Config{
		EpochSimSec: 60, EpochWallInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	d.Start()
	rng := rand.New(rand.NewSource(1))
	ids := make([]int, 200)
	for i := range ids {
		ids[i] = submitIn(t, h)
		time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if js := statusIn(t, h, id); js.State != StateDone || js.AdmittedSim != js.SubmittedSim {
			t.Errorf("job %d ended %s, submitted at %g and admitted at %g", id, js.State, js.SubmittedSim, js.AdmittedSim)
		}
	}
}

// TestTenantFairShare: two equal-weight tenants submitting identical work
// — one front-loading the queue — must converge to equal ECU-seconds, and
// the latecomer must not wait behind the whole front-loaded backlog.
func TestTenantFairShare(t *testing.T) {
	const each = 20
	d, ts := newTestDaemon(t, Config{EpochSimSec: 60, AdmitPerEpoch: 2})
	// Queue everything before the first epoch so admission order is purely
	// the fair-share ranking.
	for i := 0; i < each; i++ {
		if _, code := submitOne(t, ts.URL, "hog"); code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
	}
	for i := 0; i < each; i++ {
		if _, code := submitOne(t, ts.URL, "meek"); code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
	}
	stepUntil(t, d, func(st *Stats) bool { return st.Jobs[StateDone] == 2*each })

	d.mu.Lock()
	a, b := d.tenantCPU["hog"], d.tenantCPU["meek"]
	d.mu.Unlock()
	if a <= 0 || b <= 0 {
		t.Fatalf("tenant cpu: hog=%g meek=%g", a, b)
	}
	jain := (a + b) * (a + b) / (2 * (a*a + b*b))
	if jain < 0.99 {
		t.Errorf("equal tenants diverged: hog=%g meek=%g ECU-sec (Jain %.4f)", a, b, jain)
	}
	// Admission interleaved: meek's first job entered the sim well before
	// hog's backlog drained, i.e. its first launch is in the first half of
	// the run, not serialized after all of hog's work.
	d.mu.Lock()
	var meekFirst, lastDone float64
	for _, rec := range d.records {
		if rec.span.DoneSim > lastDone {
			lastDone = rec.span.DoneSim
		}
		if rec.span.Tenant == "meek" && (meekFirst == 0 || rec.span.FirstLaunchSim < meekFirst) {
			meekFirst = rec.span.FirstLaunchSim
		}
	}
	d.mu.Unlock()
	if meekFirst == 0 || meekFirst > lastDone/2 {
		t.Errorf("meek's first launch at %g of %g — starved behind the backlog", meekFirst, lastDone)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestChurnMidRun downs a node over the admin API while jobs flow and
// expects the daemon to keep scheduling epochs and finish everything.
func TestChurnMidRun(t *testing.T) {
	for name, sch := range map[string]sim.Scheduler{"fair": sched.NewFair(), "lips": sched.NewLiPS(60)} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			d, err := New(cluster.Paper20(0.5), sch, reg,
				Config{EpochSimSec: 60, EpochWallInterval: time.Millisecond, AdmitPerEpoch: 4})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(d.Handler())
			defer ts.Close()
			d.Start()
			for i := 0; i < 10; i++ {
				if _, code := submitOne(t, ts.URL, "a"); code != http.StatusAccepted {
					t.Fatalf("submit: %d", code)
				}
			}
			resp, body := postJSON(t, ts.URL+"/admin/churn?node=3&kind=down", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("churn down: %d %s", resp.StatusCode, body)
			}
			resp, _ = postJSON(t, ts.URL+"/admin/churn?node=3&kind=up", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("churn up: %d", resp.StatusCode)
			}
			resp, _ = postJSON(t, ts.URL+"/admin/churn?node=999&kind=down", nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("churn of bad node: %d", resp.StatusCode)
			}
			waitStats(t, ts.URL, func(st *Stats) bool { return st.Jobs[StateDone] == 10 })
			var audit AuditResponse
			if code := getJSON(t, ts.URL+"/audit", &audit); code != http.StatusOK || !audit.OK {
				t.Errorf("/audit after churn: %d %+v", code, audit)
			}
			if err := d.Shutdown(); err != nil {
				t.Fatal(err)
			}
			// One down and one up were applied (the bad node counts as
			// neither) and the epoch counter moved.
			for _, kind := range []string{"down", "up"} {
				if got, _ := reg.Value(obs.MServeChurn, kind); got != 1 {
					t.Errorf("%s{kind=%q} = %g, want 1", obs.MServeChurn, kind, got)
				}
			}
			if got, _ := reg.Value(obs.MServeEpochs); got == 0 {
				t.Errorf("%s = 0 after ten jobs ran", obs.MServeEpochs)
			}
		})
	}
}
