package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lips/internal/lp"
)

// scanBucket is the naive pricing of the still-closed machine l, the store
// loop Price ran for every (bucket, job) pair before its lower bound:
// whether any (job, store) column of l has negative reduced cost under y.
func scanBucket(cg *OnlineColGen, l int, y []float64) bool {
	in, ly := cg.m.In, &cg.m.lay
	mach := in.Machines[l]
	for k, job := range in.Jobs {
		execMC := job.CPUSec * mach.PerECUSecMC
		if job.Data == NoData {
			c := execMC
			if c-y[ly.jobRow(k)] < -cg.tol*(1+math.Abs(c)) {
				return true
			}
			continue
		}
		traffic := in.Data[job.Data].SizeMB * job.accessFrac()
		for store := range in.Stores {
			c := execMC + in.MSPerMBMC[l][store]*traffic
			d := c - y[ly.jobRow(k)] - y[ly.existRow(k, store)]
			if d < -cg.tol*(1+math.Abs(c)) {
				return true
			}
		}
	}
	return false
}

// requireScanVerdicts holds every closed bucket's pruned verdict under y
// to scanBucket's.
func requireScanVerdicts(t *testing.T, label string, cg *OnlineColGen, y []float64) {
	t.Helper()
	cg.boundExistDuals(y)
	for b, closed := range cg.buckets {
		if len(closed) == 0 {
			continue
		}
		if got, want := cg.bucketPricesNegative(b, y), scanBucket(cg, closed[0], y); got != want {
			t.Fatalf("%s: bucket %d (machine %d) prices negative: %v, the full scan says %v", label, b, closed[0], got, want)
		}
	}
}

// requirePriceOpensScanned runs Price on sol and requires it to open the
// machines the full scan's verdicts open, in the same order: a doubling
// batch of each negative bucket, buckets in order. It returns how many
// machines opened.
func requirePriceOpensScanned(t *testing.T, label string, cg *OnlineColGen, sol *lp.Solution) int {
	t.Helper()
	want := slices.Clone(cg.m.lay.units)
	for b, closed := range cg.buckets {
		if len(closed) == 0 || !scanBucket(cg, closed[0], sol.Dual) {
			continue
		}
		want = append(want, closed[:min(max(cg.opened[b], 1), len(closed))]...)
	}
	before := len(cg.m.lay.units)
	n := cg.Price(cg.m.prob, sol)
	if !slices.Equal(cg.m.lay.units, want) || n != len(want)-before {
		t.Fatalf("%s: Price opened %v (returned %d), the full scan opens %v", label, cg.m.lay.units[before:], n, want[before:])
	}
	return n
}

// dualSpecials are the values adversarialDuals plants.
var dualSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300, 1e-12, -1e-12}

// adversarialDuals derives dual vectors from a round's real ones y: all
// zero, negated, one entry replaced by a special value, and every entry
// replaced or sign-flipped with some probability.
func adversarialDuals(rng *rand.Rand, y []float64) [][]float64 {
	zero, neg := make([]float64, len(y)), make([]float64, len(y))
	for r, v := range y {
		neg[r] = -v
	}
	out := [][]float64{zero, neg}
	for i := 0; i < 8; i++ {
		z := slices.Clone(y)
		z[rng.Intn(len(z))] = dualSpecials[rng.Intn(len(dualSpecials))]
		out = append(out, z)
	}
	for i := 0; i < 4; i++ {
		z := slices.Clone(y)
		for r := range z {
			switch rng.Intn(6) {
			case 0:
				z[r] = dualSpecials[rng.Intn(len(dualSpecials))]
			case 1:
				z[r] = -z[r]
			}
		}
		out = append(out, z)
	}
	return out
}

// TestPriceBoundMatchesScan holds the pruned Price to the full store scan
// (scanBucket): on TestModelOracle's 150 random masters, at every round,
// each closed bucket gets the scan's verdict under the round's duals and
// under adversarial ones, and Price opens the machines the scan's verdicts
// open, in the same order. A hand-built instance whose job reads a
// negative size, where the bound does not hold, ends the test.
func TestPriceBoundMatchesScan(t *testing.T) {
	opened, variants := 0, 0
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomOracleInstance(rng)
		opts := ColGenOptions{}
		for n := rng.Intn(3); n > 0; n-- {
			opts.SeedMachines = append(opts.SeedMachines, rng.Intn(len(in.Machines)+2)-1)
		}
		cg, err := NewOnlineColGen(in, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for round := 0; ; round++ {
			label := fmt.Sprintf("seed %d round %d", seed, round)
			sol, err := cg.m.prob.Solve(lp.Options{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if sol.Status != lp.Optimal {
				t.Fatalf("%s: %v", label, sol.Status)
			}
			for v, y := range adversarialDuals(rng, sol.Dual) {
				requireScanVerdicts(t, fmt.Sprintf("%s duals %d %v", label, v, y), cg, y)
				variants++
			}
			n := requirePriceOpensScanned(t, label, cg, sol)
			if n == 0 {
				break
			}
			opened += n
		}
	}
	if opened < 100 || variants < 2000 {
		t.Errorf("Price opened %d machines under %d adversarial dual vectors: the bound was barely exercised", opened, variants)
	}

	// Negative traffic: the cheaper store of the scan is the one with the
	// larger MS entry, so the bound over the smallest entry says 10 while
	// store 1's column prices at −90.
	in := &Instance{
		Horizon: 100,
		Jobs:    []JobItem{{Name: "j", Data: 0, CPUSec: 10, NumTasks: 1}},
		Data:    []DataItem{{Name: "d", SizeMB: -100, Origin: map[int]float64{0: 1}}},
		Machines: []Machine{
			{Name: "m0", ECU: 1, PerECUSecMC: 1},
			{Name: "m1", ECU: 1, PerECUSecMC: 2},
		},
		Stores:        []StoreUnit{{Name: "s0", CapacityMB: 1e6}, {Name: "s1", CapacityMB: 1e6}},
		MSPerMBMC:     [][]float64{{0, 1}, {0, 1}},
		SSPerMBMC:     [][]float64{{0, 0}, {0, 0}},
		BandwidthMBps: [][]float64{{1, 1}, {1, 1}},
		CoMachine:     []int{-1, -1},
	}
	cg, err := NewOnlineColGen(in, ColGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cg.buckets) == 0 {
		t.Fatal("negative traffic: no closed bucket to price")
	}
	y := make([]float64, cg.m.prob.NumCons())
	if !scanBucket(cg, cg.buckets[0][0], y) {
		t.Fatal("negative traffic: the full scan finds no negative column under zero duals")
	}
	requireScanVerdicts(t, "negative traffic", cg, y)
	rng := rand.New(rand.NewSource(1))
	for v, y := range adversarialDuals(rng, y) {
		requireScanVerdicts(t, fmt.Sprintf("negative traffic duals %d %v", v, y), cg, y)
	}
	if n := requirePriceOpensScanned(t, "negative traffic", cg, &lp.Solution{Status: lp.Optimal, Dual: y}); n == 0 {
		t.Fatal("negative traffic: nothing opened")
	}
}

// TestPriceScanCount gates the store scans Price runs, a count. On the
// stream-10k-hetero epoch every unit is its own price class and no closed
// bucket prices negative, and the bound rules out every (bucket, job)
// pair the full scan visited. At a bound of exactly zero a pair is ruled
// out: its every column prices at zero or above.
func TestPriceScanCount(t *testing.T) {
	cg, err := NewOnlineColGen(hetero10k(t)(), ColGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0 // (closed bucket, job) pairs at the first round; every job reads input
	for _, closed := range cg.buckets {
		if len(closed) > 0 {
			pairs += len(cg.m.In.Jobs)
		}
	}
	_, st, err := cg.Solve(ColGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const wantRounds, wantScans = 1, 0
	if st.Rounds != wantRounds || cg.scans != wantScans {
		t.Errorf("hetero10k: %d rounds ran %d store scans, want %d rounds and %d scans (the full scan: %d)",
			st.Rounds, cg.scans, wantRounds, wantScans, pairs*st.Rounds)
	}
	t.Logf("hetero10k: %d store scans over %d rounds; the full scan ran %d", cg.scans, st.Rounds, pairs*st.Rounds)

	// Bound at zero: every other job's job-row dual is far below its
	// costs, every exist dual 0, and job k's job-row dual the bucket's
	// cheapest column cost, computed as the bound computes it.
	b, l := 0, cg.buckets[0][0]
	in := cg.m.In
	y := make([]float64, cg.m.prob.NumCons())
	for k := range in.Jobs {
		y[cg.m.lay.jobRow(k)] = -1e300
	}
	const k = 0
	job := in.Jobs[k]
	execMC, traffic := job.CPUSec*in.Machines[l].PerECUSecMC, in.Data[job.Data].SizeMB*job.accessFrac()
	y[cg.m.lay.jobRow(k)] = execMC + cg.minMS[b]*traffic
	cg.boundExistDuals(y)
	before := cg.scans
	if cg.bucketPricesNegative(b, y) || scanBucket(cg, l, y) {
		t.Fatal("bound at zero: a column prices negative")
	}
	if n := cg.scans - before; n != 0 {
		t.Errorf("bound at zero: %d store scans, want 0", n)
	}
}
