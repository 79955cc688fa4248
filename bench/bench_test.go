package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"lips/internal/cluster"
	"lips/internal/sched"
	"lips/internal/sim"
)

func TestOpenLoopPacesOffTheSchedule(t *testing.T) {
	// A fake clock: sleeping overshoots by 1 ms, and call 2 takes 25 ms,
	// which is longer than the 10 ms interval.
	start := time.Unix(1000, 0)
	clock := start
	now := func() time.Time { return clock }
	sleep := func(d time.Duration) { clock = clock.Add(d + time.Millisecond) }
	var began, late []time.Duration
	openLoop(start, 10*time.Millisecond, 6, now, sleep, func(i int, l time.Duration) bool {
		began = append(began, clock.Sub(start))
		late = append(late, l)
		if i == 2 {
			clock = clock.Add(25 * time.Millisecond)
		}
		return true
	})
	msec := time.Millisecond
	// Calls 3 and 4 were due at 30 and 40 ms, during call 2: they go out
	// back to back as soon as it returns, and their lateness is measured
	// from when they were due, not from when the generator got round to
	// them. By call 5 the schedule has caught up.
	wantBegan := []time.Duration{0, 11 * msec, 21 * msec, 46 * msec, 46 * msec, 51 * msec}
	wantLate := []time.Duration{0, 1 * msec, 1 * msec, 16 * msec, 6 * msec, 1 * msec}
	for i := range wantBegan {
		if began[i] != wantBegan[i] || late[i] != wantLate[i] {
			t.Errorf("call %d began at %v, %v late; want %v, %v", i, began[i], late[i], wantBegan[i], wantLate[i])
		}
	}

	// do returning false stops the loop.
	calls := 0
	openLoop(start, time.Millisecond, 100, now, sleep, func(int, time.Duration) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Errorf("loop made %d calls after do returned false on the third", calls)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// epoch [0,100] holds AddJob [10,20], AddJob [20,35] and StepUntil
	// [40,90], which holds a callback [50,60]. Self time takes off direct
	// children only.
	spans := []span{
		{Name: "epoch", Parent: -1, Start: 0, End: 100},
		{Name: "sim.AddJob", Parent: 0, Start: 10, End: 20},
		{Name: "sim.AddJob", Parent: 0, Start: 20, End: 35},
		{Name: "sim.StepUntil", Parent: 0, Start: 40, End: 90},
		{Name: "callback", Parent: 3, Start: 50, End: 60},
	}
	want := []int64{25, 10, 15, 40, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got, want[i])
		}
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	tr := newTracer("t")
	outer := tr.begin("epoch", 7)
	inner := tr.begin("sim.StepUntil", 7)
	tr.end(inner)
	tr.end(outer)
	next := tr.begin("epoch", 8)
	tr.end(next)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 || tr.spans[next].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[inner].Ref != 7 || tr.spans[next].Ref != 8 {
		t.Errorf("refs: %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("epoch", 0)) // must not panic
	if none.fork("reader") != nil {
		t.Error("fork of a nil tracer must be nil")
	}
}

// countingSched records which callbacks reached it.
type countingSched struct {
	sim.NopNodeEvents
	slotFree, slotsFree, arrivals, done int
}

func (c *countingSched) Name() string                        { return "counting" }
func (c *countingSched) Init(*sim.Sim)                       {}
func (c *countingSched) OnJobArrival(*sim.Sim, int)          { c.arrivals++ }
func (c *countingSched) OnSlotFree(*sim.Sim, cluster.NodeID) { c.slotFree++ }
func (c *countingSched) OnTaskDone(*sim.Sim, int, int)       { c.done++ }

type countingBatchSched struct{ countingSched }

func (c *countingBatchSched) OnSlotsFree(_ *sim.Sim, nodes []cluster.NodeID) {
	c.slotsFree += len(nodes)
}

func TestDecoratorKeepsBatchInterface(t *testing.T) {
	inner := &countingBatchSched{}
	wrapped, d := decorate(inner)
	b, ok := wrapped.(sim.BatchScheduler)
	if !ok {
		t.Fatal("decorating a BatchScheduler hid OnSlotsFree: sim.New would fall back to per-node calls")
	}
	for i := 0; i < 2*sampleEvery; i++ {
		b.OnSlotsFree(nil, []cluster.NodeID{1, 2, 3})
		b.OnTaskDone(nil, 0, i)
	}
	if inner.slotsFree != 6*sampleEvery || inner.done != 2*sampleEvery {
		t.Errorf("forwarded %d nodes and %d completions, want %d and %d", inner.slotsFree, inner.done, 6*sampleEvery, 2*sampleEvery)
	}
	if d.calls[cbSlotsFree] != 2*sampleEvery || d.calls[cbTaskDone] != 2*sampleEvery {
		t.Errorf("counted %v", d.calls)
	}
	if wrapped.Name() != "counting" {
		t.Errorf("name %q", wrapped.Name())
	}

	plain, _ := decorate(&countingSched{})
	if _, ok := plain.(sim.BatchScheduler); ok {
		t.Error("decorating a plain Scheduler made it a BatchScheduler")
	}
	// The real pair the benchmark wraps.
	if w, _ := decorate(sched.NewScale()); w.(sim.BatchScheduler) == nil {
		t.Error("Scale lost its batch interface")
	}
	if w, _ := decorate(sched.NewLiPS(60)); func() bool { _, ok := w.(sim.BatchScheduler); return ok }() {
		t.Error("LiPS gained a batch interface")
	}
}

// TestGrepJobsOfferTheSameWorkInAnotherOrder pins the variance control
// of the generated streams: the seed decides order, pairing and origins,
// never how much work there is.
func TestGrepJobsOfferTheSameWorkInAnotherOrder(t *testing.T) {
	c := cluster.Paper100()
	blocks := func(seed int64) (order []int, total int) {
		for _, a := range grepJobs(rand.New(rand.NewSource(seed)), c, 0, 120, 4, 15) {
			order = append(order, a.obj.NumBlocks())
			total += a.obj.NumBlocks()
			if a.job.AccessFrac < 0.5 || a.job.AccessFrac >= 1 {
				t.Fatalf("access fraction %v outside [0.5, 1)", a.job.AccessFrac)
			}
		}
		return order, total
	}
	a, totalA := blocks(1)
	again, _ := blocks(1)
	b, totalB := blocks(2)
	if !slices.Equal(a, again) {
		t.Error("the same seed gave different jobs")
	}
	if slices.Equal(a, b) {
		t.Error("seeds 1 and 2 gave the same order: the seed does not reach the inputs")
	}
	if totalA != totalB || totalA != 120*(4+15)/2 {
		t.Errorf("total blocks %d and %d, want %d for every seed", totalA, totalB, 120*(4+15)/2)
	}
}

// TestSmoke runs every workload once at 1 % scale, traced, and holds it
// to the same checks as a full run; deterministic workloads run twice and
// must repeat their simulated outputs to the bit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if !w.deterministic && testing.Short() {
				t.Skip("drives the live daemon against the wall clock")
			}
			if raceEnabled && (w.name == "stream-10k-hetero" || w.name == "batch-10k-scale") {
				t.Skip("single-goroutine 10k-node run: minutes under the race detector")
			}
			r, err := w.round(1, 0.01, newTracer("smoke"))
			if err != nil {
				t.Fatal(err)
			}
			if len(r.errs) > 0 || r.failed > 0 {
				t.Fatalf("failed %d of %d: %v", r.failed, r.attempted, r.errs)
			}
			if r.jobs == 0 || r.tasks == 0 || len(r.epochMS) == 0 || r.wall <= 0 || r.out.costUC <= 0 || r.out.makespan <= 0 {
				t.Fatalf("empty round: %d jobs, %d tasks, %d epochs, wall %v, out %+v", r.jobs, r.tasks, len(r.epochMS), r.wall, r.out)
			}
			if w.deterministic {
				again, err := w.round(1, 0.01, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(r.out, again.out) {
					t.Errorf("same seed, different simulated outputs: %+v then %+v", r.out, again.out)
				}
			}
		})
	}
}

// TestRunReportsEveryMetric runs one small workload through the whole
// run path, both passes, and checks the result carries exactly the
// metrics BENCHMARK.json promises.
func TestRunReportsEveryMetric(t *testing.T) {
	w, _ := findWorkload("stream-1k-light")
	for _, traced := range []bool{false, true} {
		res, err := runWorkload(w, 3, 0.01, traced, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Fatalf("traced=%t: correct=%t failed=%d attempted=%d: %v", traced, res.correct, res.failed, res.attempted, res.errs)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(res.metrics) != len(want) {
			t.Errorf("traced=%t: %d metrics, want %d", traced, len(res.metrics), len(want))
		}
		for _, m := range want {
			rd, ok := res.metrics[m.name]
			if !ok || rd.Unit != m.unit {
				t.Errorf("traced=%t: metric %s = %+v, want unit %s", traced, m.name, rd, m.unit)
			}
			if !traced && rd.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, must never be 0", m.name, rd.Value)
			}
		}
		if traced && (res.metrics["core.model_ms"].Value <= 0 || res.metrics["lp.solve_cold_ms"].Value <= 0) {
			t.Errorf("kernel replay did not run: %+v", res.metrics)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps the contract file and the program
// from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Paths      []string
		Workloads  []spec
		EndToEnd   []spec `json:"end_to_end"`
		PerLayer   []spec `json:"per_layer"`
		RunSeconds int    `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, program has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, listed []spec, have []metric) {
		if len(listed) != len(have) {
			t.Fatalf("%d %s metrics listed, program has %d", len(listed), kind, len(have))
		}
		for i, m := range have {
			if l := listed[i]; l.Name != m.name || l.Unit != m.unit || l.Better != m.better || l.Bound != m.bound {
				t.Errorf("%s metric %d: listed %+v, program has %+v", kind, i, l, m)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd)
	check("per-layer", doc.PerLayer, perLayer)
	for _, p := range pooled {
		found := false
		for _, m := range perLayer {
			found = found || m.name == p.name
		}
		if !found {
			t.Errorf("pooled percentile %s is not a per-layer metric", p.name)
		}
	}
}
