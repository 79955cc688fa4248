package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/hdfs"
	"lips/internal/sim"
	"lips/internal/workload"
)

// mixedCluster builds a small heterogeneous testbed: 3 m1.medium and 3
// c1.medium across the three paper zones.
func mixedCluster() *cluster.Cluster {
	b := cluster.NewBuilder(cluster.PaperZones...)
	for i := 0; i < 3; i++ {
		b.AddInstance(cluster.PaperZones[i], cost.M1Medium)
	}
	for i := 0; i < 3; i++ {
		b.AddInstance(cluster.PaperZones[i], cost.C1Medium)
	}
	return b.Build()
}

// smallJobSet is a shrunken Table IV: grep, wordcount, stress2 and a pi
// job, with inputs scattered over the m1.medium stores.
func smallJobSet(rng *rand.Rand, nStores int) *workload.Workload {
	wb := workload.NewBuilder()
	pick := func() cluster.StoreID { return cluster.StoreID(rng.Intn(nStores)) }
	wb.AddNoInputJob("pi", "user1", 2, workload.PiTaskCPUSec, 0)
	wb.AddInputJob("wc", "user2", workload.WordCount, 16*64, pick(), 0)
	wb.AddInputJob("grep", "user3", workload.Grep, 32*64, pick(), 0)
	wb.AddInputJob("st2", "user4", workload.Stress2, 16*64, pick(), 0)
	return wb.Build()
}

func runSched(t *testing.T, c *cluster.Cluster, w *workload.Workload, p *hdfs.Placement, sch sim.Scheduler, opts sim.Options) *sim.Result {
	t.Helper()
	s := sim.New(c, w, p, sch, opts)
	r, err := s.Run()
	if err != nil {
		t.Fatalf("%s: %v", sch.Name(), err)
	}
	if l, ok := sch.(*LiPS); ok && l.Err != nil {
		t.Fatalf("lips scheduler error: %v", l.Err)
	}
	return r
}

func TestFIFOCompletesAndPrefersLocality(t *testing.T) {
	c := mixedCluster()
	w := smallJobSet(rand.New(rand.NewSource(1)), 3)
	r := runSched(t, c, w, nil, NewFIFO(), sim.Options{})
	if r.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// The workload's data lives on 3 of 6 nodes; FIFO should still find
	// mostly node-local or zone-local slots for the early tasks, and
	// never pay placement (it does not move data).
	if got := r.Cost.Category(cost.CatPlacement); got != 0 {
		t.Errorf("FIFO paid placement: %v", got)
	}
}

func TestDelayImprovesLocalityOverFIFO(t *testing.T) {
	// Many small jobs with data spread over all stores: delay scheduling
	// should push node-local reads at or above the FIFO level.
	build := func() (*cluster.Cluster, *workload.Workload) {
		c := mixedCluster()
		rng := rand.New(rand.NewSource(7))
		wb := workload.NewBuilder()
		for i := 0; i < 12; i++ {
			wb.AddInputJob("j", "u", workload.Grep, 4*64, cluster.StoreID(rng.Intn(6)), float64(i))
		}
		return c, wb.Build()
	}
	c, w := build()
	fifo := runSched(t, c, w, nil, NewFIFO(), sim.Options{})
	c, w = build()
	d := NewDelay()
	d.waitSec = 60 // W1 = W2 ≈ 3 task lengths, per the delay paper
	delay := runSched(t, c, w, nil, d, sim.Options{})
	if delay.Locality.LocalFraction() < fifo.Locality.LocalFraction() {
		t.Errorf("delay locality %.2f < fifo %.2f",
			delay.Locality.LocalFraction(), fifo.Locality.LocalFraction())
	}
	if delay.Locality.LocalFraction() < 0.9 {
		t.Errorf("delay locality %.2f, want near 1 (paper: almost 100%%)",
			delay.Locality.LocalFraction())
	}
	// The locality comes at a makespan price relative to greedy FIFO.
	if delay.Makespan < fifo.Makespan {
		t.Logf("note: delay makespan %.0f beat fifo %.0f", delay.Makespan, fifo.Makespan)
	}
}

func TestLiPSSavesCostOnHeterogeneousCluster(t *testing.T) {
	// The headline claim, in miniature: on a cluster with 4–5× cheaper
	// ECU-seconds available (c1.medium), LiPS must beat the default and
	// delay schedulers on dollars, possibly at longer makespan.
	build := func() (*cluster.Cluster, *workload.Workload) {
		return mixedCluster(), smallJobSet(rand.New(rand.NewSource(3)), 3)
	}
	c, w := build()
	fifo := runSched(t, c, w, nil, NewFIFO(), sim.Options{})
	c, w = build()
	delay := runSched(t, c, w, nil, NewDelay(), sim.Options{})
	c, w = build()
	lips := NewLiPS(400)
	lipsRes := runSched(t, c, w, nil, lips, sim.Options{TaskTimeoutSec: 1200})

	if lipsRes.TotalCost() >= fifo.TotalCost() {
		t.Errorf("lips %v >= fifo %v", lipsRes.TotalCost(), fifo.TotalCost())
	}
	if lipsRes.TotalCost() >= delay.TotalCost() {
		t.Errorf("lips %v >= delay %v", lipsRes.TotalCost(), delay.TotalCost())
	}
	if lips.Epochs == 0 || lips.TasksMoved == 0 {
		t.Errorf("lips stats empty: %+v", lips)
	}
	t.Logf("fifo=%v delay=%v lips=%v (%.0f%% saving vs fifo)",
		fifo.TotalCost(), delay.TotalCost(), lipsRes.TotalCost(),
		100*(1-float64(lipsRes.TotalCost())/float64(fifo.TotalCost())))
}

func TestLiPSHandlesArrivalsOverTime(t *testing.T) {
	c := mixedCluster()
	rng := rand.New(rand.NewSource(9))
	wb := workload.NewBuilder()
	for i := 0; i < 8; i++ {
		wb.AddInputJob("j", "u", workload.Grep, 8*64, cluster.StoreID(rng.Intn(6)), float64(i)*200)
	}
	w := wb.Build()
	lips := NewLiPS(100)
	r := runSched(t, c, w, nil, lips, sim.Options{TaskTimeoutSec: 1200})
	if lips.Epochs < 2 {
		t.Errorf("epochs = %d, want several for staggered arrivals", lips.Epochs)
	}
	for j, done := range r.JobDone {
		if done < w.Jobs[j].ArrivalSec {
			t.Errorf("job %d done before arrival", j)
		}
	}
}

func TestLiPSWithoutAggregation(t *testing.T) {
	c := mixedCluster()
	w := smallJobSet(rand.New(rand.NewSource(5)), 3)
	lips := NewLiPS(400)
	lips.perNode = true
	r := runSched(t, c, w, nil, lips, sim.Options{TaskTimeoutSec: 1200})
	if r.TotalCost() == 0 {
		t.Fatal("no cost recorded")
	}
}

func TestLiPSAggregationCostParity(t *testing.T) {
	// Group aggregation is advertised as lossless for class-structured
	// clusters: total cost must match the per-node LP within rounding
	// noise.
	run := func(agg bool) cost.Money {
		c := mixedCluster()
		w := smallJobSet(rand.New(rand.NewSource(5)), 3)
		lips := NewLiPS(400)
		lips.perNode = !agg
		r := runSched(t, c, w, nil, lips, sim.Options{TaskTimeoutSec: 1200})
		return r.TotalCost()
	}
	a, b := run(true), run(false)
	diff := float64(a-b) / float64(b)
	if diff < -0.15 || diff > 0.15 {
		t.Errorf("aggregated %v vs per-node %v (%.1f%% apart)", a, b, 100*diff)
	}
}

func TestFairBalancesUsers(t *testing.T) {
	// Two users, one slot-hungry: fair scheduling should keep the Jain
	// index above plain FIFO's.
	build := func() (*cluster.Cluster, *workload.Workload) {
		c := mixedCluster()
		wb := workload.NewBuilder()
		// userA floods first; userB's job arrives just after.
		wb.AddInputJob("big", "userA", workload.WordCount, 64*64, 0, 0)
		wb.AddInputJob("small", "userB", workload.Grep, 16*64, 1, 1)
		return c, wb.Build()
	}
	c, w := build()
	fifo := runSched(t, c, w, nil, NewFIFO(), sim.Options{})
	c, w = build()
	fair := runSched(t, c, w, nil, NewFair(), sim.Options{})
	// userB must finish no later under fair than under FIFO.
	if fair.JobDone[1] > fifo.JobDone[1]+1e-6 {
		t.Errorf("fair finished small job at %g, fifo at %g", fair.JobDone[1], fifo.JobDone[1])
	}
}

func TestSpeculativeIncreasesCost(t *testing.T) {
	// §VI-A: "keeping this feature enabled ... will also increase their
	// dollar cost."
	build := func() (*cluster.Cluster, *workload.Workload) {
		b := cluster.NewBuilder("za")
		b.AddNode("za", "slow", 0.5, 1, cost.Millicents(1), 1e6)
		b.AddNode("za", "fast", 5, 1, cost.Millicents(1), 1e6)
		c := b.Build()
		wb := workload.NewBuilder()
		wb.AddInputJob("j", "u", workload.Grep, 4*64, 0, 0)
		return c, wb.Build()
	}
	c, w := build()
	plain := runSched(t, c, w, nil, NewFIFO(), sim.Options{})
	c, w = build()
	spec := runSched(t, c, w, nil, NewFIFO(), sim.Options{Speculative: true})
	if spec.TotalCost() < plain.TotalCost() {
		t.Errorf("speculative run cheaper: %v < %v", spec.TotalCost(), plain.TotalCost())
	}
	if spec.Makespan > plain.Makespan+1e-6 {
		t.Errorf("speculative makespan %g worse than plain %g", spec.Makespan, plain.Makespan)
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewFIFO().Name() != "hadoop-default" {
		t.Error("fifo name")
	}
	if NewDelay().Name() != "delay" {
		t.Error("delay name")
	}
	if NewFair().Name() != "fair" {
		t.Error("fair name")
	}
	if NewLiPS(400).Name() != "lips(e=400s)" {
		t.Error("lips name")
	}
}

// TestByName: every name the command lines accept constructs, and an
// unknown one is an error that lists the choices.
func TestByName(t *testing.T) {
	for _, name := range Names {
		if s, err := ByName(name, 60); err != nil || s == nil {
			t.Errorf("scheduler %q: %v, %v", name, s, err)
		}
	}
	if _, err := ByName("nope", 60); err == nil || !strings.Contains(err.Error(), "fifo delay fair lips scale") {
		t.Errorf("unknown scheduler: %v", err)
	}
	for _, epoch := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5, 1e-300} {
		if _, err := ByName("lips", epoch); err == nil || !strings.Contains(err.Error(), "LiPS epoch") {
			t.Errorf("LiPS epoch %g: %v, want it refused", epoch, err)
		}
	}
	for _, epoch := range []float64{0, 1, 600} {
		if _, err := ByName("lips", epoch); err != nil {
			t.Errorf("LiPS epoch %g: %v", epoch, err)
		}
	}
	for _, name := range cluster.Names {
		c, err := cluster.ByName(name, 0.5, 7, rand.New(rand.NewSource(1)))
		if err != nil || len(c.Nodes) == 0 {
			t.Errorf("cluster %q: %v", name, err)
		}
		if name == "random" && len(c.Nodes) != 7 {
			t.Errorf("random cluster has %d nodes, want the 7 asked for", len(c.Nodes))
		}
	}
	if _, err := cluster.ByName("moon-base", 0.5, 7, nil); err == nil || !strings.Contains(err.Error(), "paper20 paper100 random") {
		t.Errorf("unknown cluster: %v", err)
	}
}
