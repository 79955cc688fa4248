package lp

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"
)

var updatePivots = flag.Bool("update-pivots", false, "rewrite testdata/pivots.golden")

// pivotHash condenses one solve's path: status, iteration counts, warm
// acceptance, every pivot and the bit pattern of the objective.
func pivotHash(sol *Solution) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%v/%x|", sol.Status, sol.Iters, sol.Phase1,
		sol.WarmStarted, math.Float64bits(sol.Objective))
	for _, pv := range sol.Pivots {
		fmt.Fprintf(h, "%d:%d,", pv.Entering, pv.Leaving)
	}
	return fmt.Sprintf("%016x %v iters=%d refactor=%d", h.Sum64(), sol.Status, sol.Iters, sol.Refactorizations)
}

// tightenLE shrinks every positive ≤ right-hand side by up to frac: the
// capacity drift that leaves an optimal basis dual feasible but primal
// infeasible, without making the problem itself infeasible the way
// driftRHS on the coverage rows does.
func tightenLE(p *Problem, frac float64, rng *rand.Rand) {
	for i := 0; i < p.NumCons(); i++ {
		if c := Con(i); p.ConSense(c) == LE && p.ConRHS(c) > 0 {
			p.SetRHS(c, p.ConRHS(c)*(1-frac*rng.Float64()))
		}
	}
}

// pivotCorpus solves a fixed set of problems down every solver path and
// reports name → pivotHash lines in a fixed order.
func pivotCorpus(t *testing.T) []string {
	t.Helper()
	var out []string
	rec := func(name string, p *Problem, opts Options) *Solution {
		opts.recordPivots = true
		sol, err := p.Solve(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, name+" "+pivotHash(sol))
		return sol
	}
	for _, hc := range hardCorpus() {
		for _, f := range factorModes {
			rec("hard/"+hc.name+"/"+f.name, hc.p(), Options{factor: f.mk})
		}
		rec("hard/"+hc.name+"/bland", hc.p(), Options{Bland: true})
	}
	for seed := int64(0); seed < 40; seed++ {
		p := randomProblem(rand.New(rand.NewSource(seed)))
		rec(fmt.Sprintf("random/%d", seed), p, Options{})
	}
	for seed := int64(1); seed <= 4; seed++ {
		rec(fmt.Sprintf("junked/%d", seed), junkedLiPSLP(seed), Options{})
	}
	rec("sched-shaped", schedulingShapedLP(25, 4, 4, rand.New(rand.NewSource(3))), Options{})
	rec("sched-shaped/bland", schedulingShapedLP(12, 4, 4, rand.New(rand.NewSource(5))), Options{Bland: true})

	// Two consecutive epochs of a LiPS-shaped LP: cold, warm accepted,
	// then the right-hand sides drift under the cold basis and it is
	// rejected.
	for _, f := range factorModes {
		base := lipsShapedLP(12, 5, 4, rand.New(rand.NewSource(31)), nil)
		prev := lipsShapedLP(12, 5, 4, rand.New(rand.NewSource(31)), rand.New(rand.NewSource(32)))
		psol := rec("lips/prev/"+f.name, prev, Options{factor: f.mk})
		csol := rec("lips/cold/"+f.name, base, Options{factor: f.mk})
		rec("lips/warm/"+f.name, base, Options{factor: f.mk, WarmStart: psol.Basis})
		drifted := lipsShapedLP(12, 5, 4, rand.New(rand.NewSource(31)), nil)
		tightenLE(drifted, 0.9, rand.New(rand.NewSource(33)))
		rec("lips/warm-rejected/"+f.name, drifted, Options{factor: f.mk, WarmStart: csol.Basis})
	}

	// Cold solves over a spread of LiPS shapes.
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		jobs, machines, stores := 4+rng.Intn(8), 3+rng.Intn(5), 2+rng.Intn(4)
		p := lipsShapedLP(jobs, machines, stores, rand.New(rand.NewSource(300+seed)), nil)
		rec(fmt.Sprintf("dual/%d/base", seed), p, Options{})
	}

	// Epoch scale (≈5000 columns): long enough for mid-solve
	// refactorizations on both phases.
	prev := epochScaleLP(rand.New(rand.NewSource(78)))
	psol := rec("epoch/prev", prev, Options{})
	rec("epoch/cold", epochScaleLP(nil), Options{})
	rec("epoch/warm", epochScaleLP(nil), Options{WarmStart: psol.Basis})

	// Column generation: the hash is of the final round; the round and
	// column counts pin the ones before it.
	full := lipsShapedLP(8, 5, 4, rand.New(rand.NewSource(41)), nil)
	rp, oracle := NewRestricted(full)
	sol, st, err := SolveColGen(rp, oracle, Options{recordPivots: true})
	if err != nil {
		t.Fatalf("colgen: %v", err)
	}
	out = append(out, fmt.Sprintf("colgen %s rounds=%d cols=%d totiters=%d", pivotHash(sol), st.Rounds, st.Columns, st.Iters))
	return out
}

// TestPivotSequenceGolden pins the simplex path itself. The golden file
// was recorded with the full-scan pricer; a pricing change that claims to
// be a pure speed-up must leave every line as it is.
func TestPivotSequenceGolden(t *testing.T) {
	got := []byte{}
	for _, line := range pivotCorpus(t) {
		got = append(got, line...)
		got = append(got, '\n')
	}
	const path = "testdata/pivots.golden"
	if *updatePivots {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-pivots)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("pivot sequence changed at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("pivot corpus has %d lines, golden %d", len(gl), len(wl))
	}
}
