package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lips/bench/stat"
	"lips/internal/cluster"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/serve"
)

// serve-live-1k's offered load. Both are inputs, so neither is reported:
// 200 jobs/s is deliberately below the knee near 300–400 jobs/s where the
// daemon turns bistable (see README), and a round is short enough that a
// run fits several.
const (
	liveRate    = 200 // submissions per second
	liveSeconds = 2.5 // open-loop phase of one round
	liveReadHz  = 100
	liveTick    = 25 * time.Millisecond // serve.Config's default EpochWallInterval
	// liveAdmit caps admissions per epoch at three ticks' worth of arrivals.
	// The default of 512 lets one host stall of ~200 ms tip the daemon over:
	// the backlog is admitted at once, the LP grows with the square of it,
	// more arrives while it solves, and the loop never recovers (README,
	// hazards). With the cap a backlog drains at 16 jobs per ~30 ms epoch.
	liveAdmit = 16
)

// respWriter is the least an in-process handler call needs; it is reset
// and reused so the generator adds no allocation per request.
type respWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.header }
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// client calls a handler in-process and times the call alone: building
// the request is the generator's work, not the daemon's.
type client struct {
	h  http.Handler
	tr *tracer
	w  respWriter
	// codes counts responses by class: 2xx, 429, 5xx, anything else.
	ok, shed, serverErr, other int
}

func newClient(h http.Handler, tr *tracer) *client {
	return &client{h: h, tr: tr, w: respWriter{header: make(http.Header)}}
}

// do serves one request and returns the status and the wall of the call.
// The response body stays in cl.w.body until the next call.
func (cl *client) do(span string, ref int, method, url string, body []byte) (int, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, fmt.Errorf("%s %s: %w", method, url, err)
	}
	clear(cl.w.header)
	cl.w.code = http.StatusOK
	cl.w.body.Reset()
	sp := cl.tr.begin(span, ref)
	t0 := time.Now()
	cl.h.ServeHTTP(&cl.w, req)
	d := time.Since(t0)
	cl.tr.end(sp)
	switch c := cl.w.code; {
	case c >= 200 && c < 300:
		cl.ok++
	case c == http.StatusTooManyRequests:
		cl.shed++
	case c >= 500:
		cl.serverErr++
	default:
		cl.other++
	}
	return cl.w.code, d, nil
}

// getJSON serves a GET and decodes its 200 answer into v.
func (cl *client) getJSON(span, url string, v any) error {
	code, _, err := cl.do(span, 0, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, code, bytes.TrimSpace(cl.w.body.Bytes()))
	}
	if err := json.Unmarshal(cl.w.body.Bytes(), v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// openLoop calls do(i, late) for i in [0, n) on the fixed schedule
// start + i·interval. It paces off the schedule, never off the previous
// call, so a slow system is offered the same load as a fast one; late is
// how far behind its due time a call began. sleep and now are the clock
// (tests pass a fake one). It stops early when do returns false.
func openLoop(start time.Time, interval time.Duration, n int, now func() time.Time, sleep func(time.Duration), do func(i int, late time.Duration) bool) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(now()); d > 0 {
			sleep(d)
		}
		if !do(i, now().Sub(due)) {
			return
		}
	}
}

// liveRound is serve-live-1k: the real daemon with its defaults (but for
// liveAdmit and a ring that holds the round), driven in-process through
// Handler() by one submitting goroutine and one reading goroutine, then
// drained with Shutdown.
func liveRound(seed int64, scale float64, tr *tracer) (*round, error) {
	r := newRound()
	t0 := time.Now()
	c := cluster.Random(rand.New(rand.NewSource(clusterSeed)), cluster.RandomSpec{Nodes: 1000})
	r.setup[setupCluster] = time.Since(t0)

	t0 = time.Now()
	rng := rand.New(rand.NewSource(seed))
	n := scaled(int(liveRate*liveSeconds), scale, 20)
	bodies := make([][]byte, n)
	jobs := grepJobs(rng, c, 0, n, 4, 15)
	r.replay = &replayInput{c: c, jobs: jobs, horizon: serveEpochSec}
	for i, a := range jobs {
		body, err := json.Marshal(serve.SubmitRequest{
			Tenant: a.job.User, Name: "grep", Archetype: a.job.Archetype,
			InputMB: a.obj.SizeMB, AccessFrac: a.job.AccessFrac,
		})
		if err != nil {
			return nil, fmt.Errorf("marshal submit: %w", err)
		}
		bodies[i] = body
	}
	readSeed := rng.Int63()
	r.setup[setupWorkload] = time.Since(t0)

	t0 = time.Now()
	reg := obs.NewRegistry()
	// The ring must hold every epoch of the round: it is where the epoch
	// walls, queue depths and admission counts are read from afterwards.
	lips := sched.NewLiPS(serveEpochSec)
	d, err := serve.New(c, lips, reg, serve.Config{EpochRing: 1 << 14, AdmitPerEpoch: liveAdmit})
	if err != nil {
		return nil, err
	}
	load := newClient(d.Handler(), tr)
	reader := newClient(d.Handler(), tr.fork("reader"))
	d.Start()
	r.setup[setupConstruct] = time.Since(t0)
	r.keep = append(r.keep, d)
	abort := func(err error) (*round, error) {
		_ = d.Shutdown() // the round has already failed with err
		return nil, err
	}

	// First epoch: one job through to done, so that the cold LP, the
	// first metric children and the first span are behind the timed part.
	t0 = time.Now()
	code, _, err := load.do("serve.submit", -1, http.MethodPost, "/submit", bodies[0])
	if err != nil || code != http.StatusAccepted {
		return abort(fmt.Errorf("warm-up submit: status %d, err %v", code, err))
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		var st serve.JobStatus
		if err := load.getJSON("serve.status", "/status?id=0", &st); err != nil {
			return abort(err)
		}
		if st.State == serve.StateDone {
			break
		}
		if time.Now().After(deadline) {
			return abort(fmt.Errorf("warm-up job still %q after 10 s", st.State))
		}
		time.Sleep(liveTick)
	}
	var warm serve.Stats
	if err := load.getJSON("serve.stats", "/stats", &warm); err != nil {
		return abort(err)
	}
	r.setup[setupFirstEpoch] = time.Since(t0)
	load.ok = 0

	timed := beginTimed()
	start := time.Now()
	var known atomic.Int64 // highest job ID accepted so far; 0 is the warm-up job
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readErr error
	read := make(map[string][]float64) // the reader's samples, merged once it has stopped
	var scrapeBytes int
	wg.Add(1)
	go func() {
		defer wg.Done()
		rrng := rand.New(rand.NewSource(readSeed))
		openLoop(start, time.Second/liveReadHz, 1<<30, time.Now, time.Sleep, func(i int, _ time.Duration) bool {
			select {
			case <-stop:
				return false
			default:
			}
			var d time.Duration
			switch {
			case i%50 == 49:
				_, d, readErr = reader.do("serve.metrics", i, http.MethodGet, "/metrics", nil)
				read["scrape_ms"] = append(read["scrape_ms"], ms(d))
				scrapeBytes = reader.w.body.Len()
			case i%10 == 9:
				_, d, readErr = reader.do("serve.stats", i, http.MethodGet, "/stats", nil)
				read["stats_us"] = append(read["stats_us"], ms(d)*1e3)
			default:
				url := fmt.Sprintf("/status?id=%d", rrng.Int63n(known.Load()+1))
				_, d, readErr = reader.do("serve.status", i, http.MethodGet, url, nil)
				read["status_us"] = append(read["status_us"], ms(d)*1e3)
			}
			return readErr == nil
		})
	}()

	accepted := make([]int, 0, n)
	var loadErr error
	openLoop(start, time.Second/liveRate, n, time.Now, time.Sleep, func(i int, late time.Duration) bool {
		var code int
		var d time.Duration
		code, d, loadErr = load.do("serve.submit", i, http.MethodPost, "/submit", bodies[i])
		if loadErr != nil {
			return false
		}
		r.samples["late_ms"] = append(r.samples["late_ms"], ms(late))
		r.samples["submit_us"] = append(r.samples["submit_us"], ms(d)*1e3)
		if code == http.StatusAccepted {
			var resp serve.SubmitResponse
			if loadErr = json.Unmarshal(load.w.body.Bytes(), &resp); loadErr != nil {
				return false
			}
			accepted = append(accepted, resp.ID)
			known.Store(int64(resp.ID))
		}
		return true
	})
	close(stop)
	wg.Wait()

	drainStart := time.Now()
	shutdownErr := d.Shutdown()
	r.layer["serve.drain_s"] = time.Since(drainStart).Seconds()
	timed.end(r)
	if loadErr != nil {
		return nil, loadErr
	}
	if readErr != nil {
		return nil, readErr
	}
	for k, v := range read {
		r.samples[k] = v
	}
	r.layer["serve.metrics_scrape_bytes"] = float64(scrapeBytes)

	// Everything below reads the stopped daemon; its handler still answers.
	r.attempted += n + reader.ok + reader.shed + reader.serverErr + reader.other
	r.failed += load.shed + load.serverErr + load.other + reader.shed + reader.serverErr + reader.other
	if bad := r.failed; bad > 0 {
		r.errs = append(r.errs, fmt.Sprintf("%d responses were not 2xx", bad))
	}
	r.layer["serve.http_2xx"] = float64(load.ok + reader.ok)
	r.layer["serve.http_429"] = float64(load.shed + reader.shed)
	r.layer["serve.http_5xx"] = float64(load.serverErr + reader.serverErr)
	if shutdownErr != nil {
		r.failf("daemon: %v", shutdownErr)
	}
	// The epoch goroutine has exited, so the scheduler's counters are
	// safe to read; they cover the whole life of the daemon, the warm-up
	// job included.
	if lips.Err != nil {
		r.failf("LiPS: %v", lips.Err)
	}
	r.layer["sched.epochs"] = float64(lips.Epochs)
	r.layer["sched.solve_ms_total"] = ms(lips.SolveTime)
	r.layer["sched.lp_iters"] = float64(lips.LPIters)
	r.layer["sched.warm_attempted"] = float64(lips.Solver.WarmAttempted)
	r.layer["sched.warm_accepted"] = float64(lips.Solver.WarmAccepted)
	r.layer["sched.tasks_moved"] = float64(lips.TasksMoved)
	r.layer["sched.blocks_moved"] = float64(lips.BlocksMoved)

	check := newClient(d.Handler(), nil)
	e2e := make([]float64, 0, len(accepted))
	for _, id := range accepted {
		var st serve.JobStatus
		if err := check.getJSON("", fmt.Sprintf("/status?id=%d", id), &st); err != nil {
			return nil, err
		}
		if st.State != serve.StateDone {
			r.failf("job %d is %q after drain", id, st.State)
			continue
		}
		r.jobs++
		r.tasks += st.DoneTasks
		e2e = append(e2e, st.DoneSim-st.SubmittedSim)
		if st.DoneSim > r.out.makespan {
			r.out.makespan = st.DoneSim
		}
	}
	r.out.e2eP50, _ = stat.Percentile(e2e, 0.50)
	r.out.e2eP95, _ = stat.Percentile(e2e, 0.95)

	var audit serve.AuditResponse
	if err := check.getJSON("", "/audit", &audit); err != nil {
		r.failf("audit: %v", err)
	} else if audit.TenantSumUC != audit.TotalUC {
		r.failf("tenant lines sum to %d uc, ledger total is %d uc", audit.TenantSumUC, audit.TotalUC)
	}
	r.out.costUC = audit.TotalUC

	var epochs serve.EpochsResponse
	if err := check.getJSON("", "/debug/epochs", &epochs); err != nil {
		return nil, err
	}
	overrun := 0
	for _, e := range epochs.Epochs {
		if e.Epoch <= warm.Epochs {
			continue // the warm-up job's epochs belong to set-up
		}
		r.epochMS = append(r.epochMS, e.WallMS)
		r.busy += time.Duration(e.WallMS * float64(time.Millisecond))
		if e.WallMS > ms(liveTick) {
			overrun++
		}
		r.layer["serve.queue_depth_max"] = max(r.layer["serve.queue_depth_max"], float64(e.QueueDepth))
		r.layer["serve.admitted_per_epoch_max"] = max(r.layer["serve.admitted_per_epoch_max"], float64(e.AdmittedCount))
		r.samples["lp_jobs"] = append(r.samples["lp_jobs"], float64(e.AdmittedCount))
	}
	r.attempted += len(r.epochMS)
	if int64(len(epochs.Epochs)) != epochs.Total {
		r.failf("epoch ring kept %d of %d epochs", len(epochs.Epochs), epochs.Total)
	}
	r.samples["serve_epoch_ms"] = r.epochMS
	if len(r.epochMS) > 0 {
		r.layer["serve.epoch_overrun_frac"] = float64(overrun) / float64(len(r.epochMS))
	}
	return r, nil
}
