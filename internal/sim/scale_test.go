package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"lips/internal/cluster"
	"lips/internal/trace"
	"lips/internal/workload"
)

// batchStub is the in-package stand-in for the sched.Scale batch
// scheduler (sched imports sim, so the real one cannot be used here):
// FIFO job order, cursor-based pending scan, best-replica placement,
// batched slot-free notifications.
type batchStub struct {
	NopNodeEvents
	cursors []int
	head    int // lowest job index that may still have pending work
	// onFill, when set, runs before each node is filled — the churn test
	// uses it to kill running work in the middle of a batched sweep.
	onFill func(s *Sim, n cluster.NodeID)
}

func (bs *batchStub) Name() string { return "batch-stub" }
func (bs *batchStub) Init(s *Sim) {
	bs.cursors = make([]int, len(s.W.Jobs))
	bs.head = 0
}
func (bs *batchStub) OnJobArrival(s *Sim, job int) {
	bs.cursors[job] = 0
	if job < bs.head {
		bs.head = job
	}
	s.KickIdleNodes()
}
func (bs *batchStub) OnTaskDone(*Sim, int, int) {}
func (bs *batchStub) OnSlotFree(s *Sim, n cluster.NodeID) {
	bs.fill(s, n)
}
func (bs *batchStub) OnSlotsFree(s *Sim, nodes []cluster.NodeID) {
	for _, n := range nodes {
		if bs.onFill != nil {
			bs.onFill(s, n)
		}
		if !bs.fill(s, n) {
			return // backlog drained; later nodes would rescan for nothing
		}
	}
}

// fill reports false once the pending backlog is drained, so a batched
// sweep stops instead of paying a failed job scan per remaining node.
func (bs *batchStub) fill(s *Sim, n cluster.NodeID) bool {
	for s.FreeSlots(n) > 0 {
		job, task, ok := bs.next(s)
		if !ok {
			return false
		}
		store := NoStore
		if s.W.Jobs[job].HasInput() {
			store = s.BestReplica(job, task, n)
		}
		if err := s.Launch(job, task, n, store); err != nil {
			bs.cursors[job] = task + 1
			continue
		}
		bs.cursors[job] = task
	}
	return true
}

// next mirrors sched.Scale: scan from the head job so a launch costs
// amortized O(1); one full rescan (head and cursors reset) when the
// forward-only cursors miss work re-pended behind them.
func (bs *batchStub) next(s *Sim) (job, task int, ok bool) {
	for rescan := 0; rescan < 2; rescan++ {
		for j := bs.head; j < len(bs.cursors); j++ {
			if !s.JobArrived(j) {
				continue
			}
			if t := s.NextPending(j, bs.cursors[j]); t >= 0 {
				return j, t, true
			}
			bs.cursors[j] = s.W.Jobs[j].NumTasks
			if j == bs.head {
				bs.head++
			}
		}
		if pending, _, _, _ := s.StateCounts(); pending == 0 {
			return 0, 0, false
		}
		bs.head = 0
		for j := range bs.cursors {
			bs.cursors[j] = 0
		}
	}
	return 0, 0, false
}

// buildScaleRun builds a seed-deterministic random cluster and workload
// of the given size.
func buildScaleRun(nodes, tasks int, seed int64) (*cluster.Cluster, *workload.Workload) {
	rng := rand.New(rand.NewSource(seed))
	c := cluster.Random(rng, cluster.RandomSpec{Nodes: nodes})
	w := workload.Random(rng, c.StoreIDs(), workload.RandomSpec{TotalTasks: tasks})
	return c, w
}

func runScaleTrace(t *testing.T, c *cluster.Cluster, w *workload.Workload, sched Scheduler, opts Options, seed int64) ([]byte, *Result) {
	t.Helper()
	p := w.Placement()
	p.Shuffle(rand.New(rand.NewSource(seed+1000)), c.StoreIDs())
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	opts.Tracer = sink
	if opts.SampleIntervalSec == 0 {
		opts.SampleIntervalSec = 120
	}
	r, err := New(c, w, p, sched, opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

// TestScaleDeterministic pins the tentpole determinism claim: a 1k-node,
// 100k-task run from a fixed seed produces byte-identical JSONL traces
// across repeated runs.
func TestScaleDeterministic(t *testing.T) {
	nodes, tasks := 1000, 100_000
	if testing.Short() {
		nodes, tasks = 200, 5_000
	}
	c, w := buildScaleRun(nodes, tasks, 7)
	a, ra := runScaleTrace(t, c, w, &batchStub{}, Options{}, 7)
	b, rb := runScaleTrace(t, c, w, &batchStub{}, Options{}, 7)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed traces differ: run A %d bytes, run B %d bytes", len(a), len(b))
	}
	if ra.TotalCost() != rb.TotalCost() || ra.Makespan != rb.Makespan {
		t.Fatalf("same-seed results differ: %v vs %v", ra, rb)
	}
	if got := ra.Locality.Total(); got != w.TotalTasks() {
		t.Fatalf("launched %d tasks, workload has %d", got, w.TotalTasks())
	}
}

// specStub is a spec-aware greedy scheduler for TestDispatchGolden:
// greedy best-replica fill, falling back to speculative execution like
// the Hadoop default.
func specStub() *stubSched {
	ss := &stubSched{name: "spec-stub"}
	ss.onSlotFree = func(s *Sim, n cluster.NodeID) {
		for s.FreeSlots(n) > 0 {
			launched := false
			for _, j := range s.ArrivedJobs() {
				pending := s.PendingTasks(j)
				if len(pending) == 0 {
					continue
				}
				store := NoStore
				if s.W.Jobs[j].HasInput() {
					store = s.BestReplica(j, pending[0], n)
				}
				if err := s.Launch(j, pending[0], n, store); err != nil {
					continue
				}
				launched = true
				break
			}
			if !launched {
				s.LaunchSpeculative(n)
				return
			}
		}
	}
	ss.onArrival = func(s *Sim, _ int) { s.KickIdleNodes() }
	return ss
}

// cancelStub is specStub that, at every 20th task completion, cancels the
// oldest arrived job with a speculative copy running, so CancelJob kills
// running primaries and their copies alike.
func cancelStub() *stubSched {
	ss := specStub()
	ss.name = "cancel-stub"
	done := 0
	ss.onTaskDone = func(s *Sim, _, _ int) {
		if done++; done%20 != 0 {
			return
		}
		for _, j := range s.ArrivedJobs() {
			for f := s.taskBase[j]; f < s.taskBase[j+1]; f++ {
				if s.tasks[f].spec >= 0 {
					if err := s.CancelJob(j); err != nil {
						panic(err)
					}
					return
				}
			}
		}
	}
	return ss
}

// killKinds labels the kills in a JSONL trace: each kill's reason, with
// ":copy" for a speculative copy's, and a timeout also by the read it cut
// short — ":dedicated" after a node-local launch, whose read never shares
// a link, ":shared" after any other (which it is only in a run with
// shared links).
func killKinds(t *testing.T, tr []byte) map[string]bool {
	t.Helper()
	evs, err := trace.ReadAll(bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]bool)
	local := make(map[[2]int]bool) // the primary's last launch was node-local
	for _, e := range evs {
		if e.Task == nil {
			continue
		}
		key := [2]int{e.Task.Job, e.Task.Task}
		switch {
		case e.Kind == trace.KindLaunch && !e.Task.Speculative:
			local[key] = e.Task.Locality == NodeLocal.String()
		case e.Kind == trace.KindKill && e.Task.Speculative:
			kinds[e.Task.Reason+":copy"] = true
		case e.Kind == trace.KindKill:
			kinds[e.Task.Reason] = true
			if e.Task.Reason == "timeout" && local[key] {
				kinds["timeout:dedicated"] = true
			} else if e.Task.Reason == "timeout" {
				kinds["timeout:shared"] = true
			}
		}
	}
	return kinds
}

// TestDispatchGolden freezes what the full-scan control paths produced.
// testdata/dispatch.golden was recorded through the O(nodes)/O(tasks)
// scans crashNode, store loss, KickIdleNodes and scanSample used to run
// before the incremental indexes replaced them: per run the SHA-256 of
// the JSONL trace — every launch, kill, fault replay and sample counter —
// plus cost, makespan and fault counters, under speculation, faults and
// batched notifications. The indexed paths must keep reproducing it bit
// for bit. shared-spec-churn (shared links, a timeout shorter than a
// local block read) and cancel-churn (CancelJob on jobs with copies
// running) pin every way an attempt ends; each scenario must show the
// kills it exists for, so it cannot drift off its path unseen. To
// re-record after an intended change, paste the printed lines.
func TestDispatchGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/dispatch.golden")
	if err != nil {
		t.Fatal(err)
	}
	c, w := buildScaleRun(64, 2000, 11)
	faults := RandomFaultPlan(11, c, FaultSpec{Crashes: 3, StoreLosses: 2, Slowdowns: 2})
	churn := RandomFaultPlan(12, c, FaultSpec{Crashes: 12, StoreLosses: 6, Slowdowns: 4})
	crashes := []string{"node-crash"}
	specCrashes := []string{"node-crash", "speculative", "speculative:copy"}
	for _, tc := range []struct {
		name  string
		sched func() Scheduler
		opts  Options
		kills []string // kill labels (killKinds) the trace must carry
	}{
		{"spec-faults", func() Scheduler { return specStub() },
			Options{Speculative: true, Faults: faults}, specCrashes},
		{"batch-faults", func() Scheduler { return &batchStub{} },
			Options{Faults: faults}, crashes},
		{"plain", func() Scheduler { return greedyStub() }, Options{}, nil},
		{"spec-churn", func() Scheduler { return specStub() },
			Options{Speculative: true, Faults: churn}, specCrashes},
		{"batch-churn", func() Scheduler { return &batchStub{} },
			Options{Faults: churn}, crashes},
		{"shared-spec-churn", func() Scheduler { return specStub() },
			Options{SharedLinks: true, Speculative: true, Faults: churn, TaskTimeoutSec: 0.6},
			append([]string{"timeout:dedicated", "timeout:shared", "store-loss"}, specCrashes...)},
		{"cancel-churn", func() Scheduler { return cancelStub() },
			Options{Speculative: true, Faults: churn},
			append([]string{"cancel", "cancel:copy", "store-loss"}, specCrashes...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, r := runScaleTrace(t, c, w, tc.sched(), tc.opts, 11)
			f := r.Faults
			got := fmt.Sprintf("%s trace=%x cost=%d makespan=%v faults=%d/%d/%d/%d/%d/%d/%d",
				tc.name, sha256.Sum256(tr), int64(r.TotalCost()), r.Makespan,
				f.NodesCrashed, f.NodesRecovered, f.StoresLost, f.Slowdowns,
				f.TasksReexecuted, f.BlocksReplicated, f.BlocksLost)
			if !strings.Contains("\n"+string(golden), "\n"+got+"\n") {
				t.Errorf("not a line of testdata/dispatch.golden:\n%s", got)
			}
			kinds := killKinds(t, tr)
			for _, k := range tc.kills {
				if !kinds[k] {
					t.Errorf("no %q kill in the trace; it has %v", k, kinds)
				}
			}
		})
	}
}

// verifyIndexes recomputes every incremental index from scratch and
// compares it with the live copy — the ground-truth oracle behind
// TestSlotIndexProperty and the churn test.
//
// strict additionally requires every Running task to be tracked in
// s.running. That direction only holds at quiescent points: while a
// completion settles its speculative twin, the losing attempt's kill
// frees a slot and dispatches the scheduler before the task flips to
// Done, so slot-free callbacks can observe a Running task whose attempts
// are already untracked. Callers inside OnSlotFree/OnSlotsFree therefore
// pass strict=false; OnTaskDone and end-of-run use strict=true.
func verifyIndexes(t *testing.T, s *Sim, strict bool) {
	t.Helper()
	freeSlots, liveSlots, down := 0, 0, 0
	held := make([]int, len(s.nodes)) // tracked attempts by node
	for _, ref := range s.running {
		held[s.attemptOf(&s.tasks[ref>>1], ref&1 == 1).node]++
	}
	for n := range s.nodes {
		ns := &s.nodes[n]
		idle := s.idle[n>>6]&(1<<(uint(n)&63)) != 0
		if idle != (!ns.down && ns.free > 0) {
			t.Fatalf("node %d: idle bit %v, want %v (down=%v free=%d)", n, idle, !idle, ns.down, ns.free)
		}
		if ns.down {
			down++
			continue
		}
		// Each slot is free or held by one tracked attempt; between a
		// primary's untrack and its slot's release (dropCopy) one slot
		// is neither.
		if slots := s.C.Nodes[n].Slots; ns.free+held[n] > slots || (strict && ns.free+held[n] != slots) {
			t.Fatalf("node %d: %d free slots and %d tracked attempts on %d slots", n, ns.free, held[n], slots)
		}
		freeSlots += ns.free
		liveSlots += s.C.Nodes[n].Slots
	}
	if freeSlots != s.freeSlots || liveSlots != s.liveSlots {
		t.Fatalf("slots: live (%d free, %d total), recomputed (%d, %d)",
			s.freeSlots, s.liveSlots, freeSlots, liveSlots)
	}
	if down != s.NodesDown() {
		t.Fatalf("down nodes: kept %d, recounted %d", s.NodesDown(), down)
	}

	var stateCount [4]int
	for _, st := range s.states {
		stateCount[st]++
	}
	if stateCount != s.stateCount {
		t.Fatalf("state counts: live %v, recomputed %v", s.stateCount, stateCount)
	}
	unarrived := 0
	for j := range s.jobs {
		if !s.jobs[j].arrived {
			unarrived += s.W.Jobs[j].NumTasks
		}
	}
	if unarrived != s.unarrived {
		t.Fatalf("unarrived: live %d, recomputed %d", s.unarrived, unarrived)
	}

	// StateCounts against the per-task count over arrived jobs — the scan
	// the periodic sample used to run.
	var arrived [4]int
	for j := range s.jobs {
		if !s.jobs[j].arrived {
			continue
		}
		for f := s.taskBase[j]; f < s.taskBase[j+1]; f++ {
			arrived[s.states[f]]++
		}
	}
	pending, queued, running, done := s.StateCounts()
	if got := [4]int{Pending: pending, Queued: queued, Running: running, Done: done}; got != arrived {
		t.Fatalf("StateCounts: live %v, per-task count %v", got, arrived)
	}

	// The job index: the active list is the arrival order (fifoPos)
	// filtered by remaining > 0, linked both ways; every job's counters
	// and cursor agree with a recount of its task range — the scans
	// ArrivedJobs, PendingTasks and JobStateCounts used to run.
	fifo := make([]int, s.arrivals)
	seen := make([]bool, s.arrivals)
	for j := range s.jobs {
		if js := &s.jobs[j]; js.arrived {
			if js.fifoPos >= s.arrivals || seen[js.fifoPos] {
				t.Fatalf("job %d: fifoPos %d is out of range or taken (%d arrivals)", j, js.fifoPos, s.arrivals)
			}
			fifo[js.fifoPos], seen[js.fifoPos] = j, true
		}
	}
	if slices.Contains(seen, false) {
		t.Fatalf("%d arrivals, but not every fifoPos below is held: %v", s.arrivals, seen)
	}
	var active []int
	for _, j := range fifo {
		if s.jobs[j].remaining > 0 {
			active = append(active, j)
		}
	}
	var forward, backward []int
	for j := s.actHead; j >= 0 && len(forward) <= len(s.jobs); j = s.jobs[j].next {
		forward = append(forward, int(j))
	}
	for j := s.actTail; j >= 0 && len(backward) <= len(s.jobs); j = s.jobs[j].prev {
		backward = append([]int{int(j)}, backward...)
	}
	if !slices.Equal(forward, active) || !slices.Equal(backward, active) || s.nActive != len(active) {
		t.Fatalf("active list: forward %v, backward %v, length %d; fifo filtered by remaining > 0 %v",
			forward, backward, s.nActive, active)
	}
	if got := s.ArrivedJobs(); !slices.Equal(got, active) {
		t.Fatalf("ArrivedJobs = %v, want %v", got, active)
	}
	for j := range s.jobs {
		js := &s.jobs[j]
		if js.active != slices.Contains(active, j) {
			t.Fatalf("job %d: active flag %v, list membership %v", j, js.active, !js.active)
		}
		var counts [4]int32
		for f := s.taskBase[j]; f < s.taskBase[j+1]; f++ {
			counts[s.states[f]]++
			if TaskState(s.states[f]) == Pending && f-s.taskBase[j] < js.cursor {
				t.Fatalf("job %d: task %d is Pending below the cursor %d", j, f-s.taskBase[j], js.cursor)
			}
		}
		if counts != js.counts {
			t.Fatalf("job %d: state counts %v, recount %v", j, js.counts, counts)
		}
	}
	verifyLocalityIndexes(t, s)

	// Every ref in the running index must point back at itself through the
	// attempt record's stored position — the swap-remove fixup invariant.
	for pos, ref := range s.running {
		flat := ref >> 1
		if a := s.attemptOf(&s.tasks[flat], ref&1 == 1); a == nil || a.runPos != int32(pos) {
			t.Fatalf("running[%d]=%#x (flat=%d): the attempt's record does not hold that position", pos, ref, flat)
		}
	}
	verifyHits(t, s, strict)
	if !strict {
		return
	}
	refs := 0
	tracked := func(flat int, speculative bool) {
		ref := int32(flat) << 1
		if speculative {
			ref |= 1
		}
		pos := s.attemptOf(&s.tasks[flat], speculative).runPos
		if pos < 0 || pos >= int32(len(s.running)) || s.running[pos] != ref {
			t.Fatalf("task flat=%d (speculative %v): ref missing from running index (pos=%d)", flat, speculative, pos)
		}
		refs++
	}
	for flat := range s.tasks {
		if TaskState(s.states[flat]) == Running {
			tracked(flat, false)
		}
		if s.tasks[flat].spec >= 0 {
			tracked(flat, true)
		}
	}
	if refs != len(s.running) {
		t.Fatalf("running index has %d refs, tasks account for %d", len(s.running), refs)
	}
}

// verifyHits requires runningHits by node and by store — the victims
// fault replay visits — to equal what crashNode and store loss used to
// find by filtering the whole task table in ascending order: tasks with a
// speculative copy, or a Running primary, on the node or reading the
// store. Outside quiescent points (strict=false) a completing task's
// attempts can already be untracked while its record still shows them, so
// there the filter counts only attempts the running index still holds.
func verifyHits(t *testing.T, s *Sim, strict bool) {
	t.Helper()
	wantNode := make([][]int32, len(s.nodes))
	wantStore := make([][]int32, len(s.C.Stores))
	add := func(want [][]int32, at int, flat int32) {
		if at < 0 {
			return // NoStore: the attempt reads nothing
		}
		if l := want[at]; len(l) == 0 || l[len(l)-1] != flat {
			want[at] = append(l, flat)
		}
	}
	addAttempt := func(a *attempt, flat int32) {
		if a != nil && (strict || a.runPos >= 0) {
			add(wantNode, int(a.node), flat)
			add(wantStore, int(a.store), flat)
		}
	}
	for f := range s.tasks {
		ti := &s.tasks[f]
		if TaskState(s.states[f]) == Running {
			addAttempt(&ti.attempt, int32(f))
		}
		addAttempt(s.attemptOf(ti, true), int32(f))
	}
	// The collector's scratch buffer is one that fault replay may be
	// ranging over when a kill's dispatch lands here: leave it alone.
	scratch := s.hitBuf
	s.hitBuf = nil
	defer func() { s.hitBuf = scratch }()
	for n := range wantNode {
		got := s.runningHits(func(a *attempt) bool { return a.node == cluster.NodeID(n) })
		if !slices.Equal(got, wantNode[n]) {
			t.Fatalf("running hits on node %d = %v, full-table filter %v", n, got, wantNode[n])
		}
	}
	for st := range wantStore {
		got := s.runningHits(func(a *attempt) bool { return a.store == cluster.StoreID(st) })
		if !slices.Equal(got, wantStore[st]) {
			t.Fatalf("running hits on store %d = %v, full-table filter %v", st, got, wantStore[st])
		}
	}
}

// cancelRunningJob cancels a random arrived job that has running tasks and
// is not already being cancelled — the daemon's kill path, entered here
// from inside a scheduler callback, which may itself run inside another
// job's cancel. It reports whether there was such a job.
func cancelRunningJob(t *testing.T, s *Sim, rng *rand.Rand) bool {
	var live []int
	for _, j := range s.ArrivedJobs() {
		if _, _, running, _ := s.JobStateCounts(j); running > 0 && !s.JobCancelled(j) {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return false
	}
	if err := s.CancelJob(live[rng.Intn(len(live))]); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestSlotIndexProperty drives random launch/cancel/crash/recover churn
// through the simulator and checks, at every scheduler callback, that the
// incremental indexes agree with recomputed-from-scratch copies, and
// that BestLocalityTask agrees with the scan on a sample of nodes. The
// queues variant also pins a quarter of its picks to random nodes'
// queues, where drains and crashes re-pend them, and takes every other
// pick in task order, so that jobs' cursors pass work that later re-pends
// below them; it draws those choices from a stream of its own.
func TestSlotIndexProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, queues := range []bool{false, true} {
			slotIndexChurn(t, seed, queues)
		}
	}
}

func slotIndexChurn(t *testing.T, seed int64, queues bool) {
	c, w := buildScaleRun(48, 600, seed)
	faults := RandomFaultPlan(seed, c, FaultSpec{Crashes: 4, StoreLosses: 2, Slowdowns: 2})
	rng := rand.New(rand.NewSource(seed * 97))
	qrng := rand.New(rand.NewSource(seed * 89))
	lrng := rand.New(rand.NewSource(seed * 83))
	checks, cancels, queued := 0, 0, 0
	// Picks in task order keep more jobs running at once, so the queues
	// variant cancels half as often to let most of them finish.
	cancelEvery := 50
	if queues {
		cancelEvery = 100
	}
	ss := &stubSched{name: "churn-stub"}
	ss.onSlotFree = func(s *Sim, n cluster.NodeID) {
		verifyIndexes(t, s, false)
		verifyLocality(t, s, lrng)
		checks++
		for s.FreeSlots(n) > 0 {
			if rng.Intn(10) == 0 {
				return // leave the slot idle this round
			}
			launched := false
			for _, j := range s.ArrivedJobs() {
				pending := s.PendingTasks(j)
				if len(pending) == 0 {
					continue
				}
				pick := pending[rng.Intn(len(pending))]
				if queues && qrng.Intn(2) == 0 {
					pick = pending[0]
				}
				if m := cluster.NodeID(qrng.Intn(len(s.C.Nodes))); queues && qrng.Intn(4) == 0 && s.NodeAlive(m) {
					store := NoStore
					if s.W.Jobs[j].HasInput() {
						store = s.BestReplica(j, pick, m)
					}
					if err := s.Enqueue(j, pick, m, store, s.Now()+300*qrng.Float64()); err != nil {
						t.Fatal(err)
					}
					queued++
					continue
				}
				store := NoStore
				if s.W.Jobs[j].HasInput() {
					store = s.BestReplica(j, pick, n)
				}
				if err := s.Launch(j, pick, n, store); err != nil {
					continue
				}
				launched = true
				break
			}
			if !launched {
				s.LaunchSpeculative(n)
				return
			}
		}
	}
	ss.onTaskDone = func(s *Sim, job, task int) {
		verifyIndexes(t, s, true)
		verifyLocality(t, s, lrng)
		if rng.Intn(cancelEvery) == 0 && cancelRunningJob(t, s, rng) {
			cancels++
		}
	}
	p := w.Placement()
	p.Shuffle(rand.New(rand.NewSource(seed+1000)), c.StoreIDs())
	s := New(c, w, p, ss, Options{Speculative: true, Faults: faults})
	if _, err := s.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	verifyIndexes(t, s, true)
	if checks == 0 || queues && queued == 0 {
		t.Fatalf("seed %d: property checked %d times, %d tasks queued", seed, checks, queued)
	}
	if cancels == 0 || 2*cancels >= len(w.Jobs) {
		t.Fatalf("seed %d: %d of %d jobs cancelled; the churn must hit some and let most finish", seed, cancels, len(w.Jobs))
	}
}

// TestKillDuringBatchedSlotFree churns CancelJob from inside a batched
// OnSlotsFree sweep: killing work on nodes later in the same batch (and
// on the node being filled) must leave the indexes coherent and the run
// complete.
func TestKillDuringBatchedSlotFree(t *testing.T) {
	c, w := buildScaleRun(48, 600, 5)
	rng := rand.New(rand.NewSource(5))
	bs := &batchStub{}
	cancels := 0
	bs.onFill = func(s *Sim, n cluster.NodeID) {
		verifyIndexes(t, s, false)
		if rng.Intn(100) == 0 && cancelRunningJob(t, s, rng) {
			cancels++
		}
	}
	p := w.Placement()
	p.Shuffle(rand.New(rand.NewSource(1005)), c.StoreIDs())
	s := New(c, w, p, bs, Options{})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	verifyIndexes(t, s, true)
	if cancels == 0 || 2*cancels >= len(w.Jobs) {
		t.Fatalf("%d of %d jobs cancelled; the churn must hit some and let most finish", cancels, len(w.Jobs))
	}
	for j := range w.Jobs {
		if got := s.JobRemaining(j); got != 0 {
			t.Fatalf("job %d still has %d tasks after churn", j, got)
		}
	}
}

// TestRecordLayout holds the task table's row and the pooled copy record
// to their sizes: batch-10k-scale keeps 2M taskInfo rows, so each byte a
// row grows costs 2 MB of retained heap there.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(taskInfo{}); got > 104 {
		t.Errorf("taskInfo is %d bytes, budget 104", got)
	}
	if got := unsafe.Sizeof(attempt{}); got > 64 {
		t.Errorf("attempt is %d bytes, budget 64", got)
	}
}

// TestSteadyStateNoAllocs pins the zero-allocation event loop: with
// tracing and metrics disabled and a cursor-based scheduler, a full
// 50k-task run must stay within a small constant allocation budget —
// no per-event or per-launch garbage. Skipped under -race (the race
// runtime allocates).
func TestSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(3))
	c := cluster.Random(rng, cluster.RandomSpec{Nodes: 64})
	wb := workload.NewBuilder()
	wb.AddNoInputJob("steady", "u", 50_000, 30, 0)
	w := wb.Build()

	cursor := 0
	ss := &stubSched{name: "cursor-stub"}
	ss.onArrival = func(s *Sim, _ int) { s.KickIdleNodes() }
	ss.onSlotFree = func(s *Sim, n cluster.NodeID) {
		for s.FreeSlots(n) > 0 {
			tsk := s.NextPending(0, cursor)
			if tsk < 0 {
				return
			}
			if err := s.Launch(0, tsk, n, NoStore); err != nil {
				return
			}
			cursor = tsk
		}
	}
	s := New(c, w, nil, ss, Options{})

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs
	// Run's fixed overhead (the final Result, job bookkeeping) is allowed;
	// anything growing with the 50k launches/completions is not.
	if allocs > 200 {
		t.Fatalf("steady-state run allocated %d objects for 50k tasks; want ≤200", allocs)
	}
}
