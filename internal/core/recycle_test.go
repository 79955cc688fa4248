package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lips/internal/cluster"
	"lips/internal/lp"
)

// masterCase is one epoch of the recycled-master corpus: build makes a
// new copy of its instance on every call, since a master edits the one
// it is handed and Release takes its matrices. An instance built by
// Units.Instance, on pooled matrices, has matrices to hold them to the
// cluster's per-entry prices.
type masterCase struct {
	name     string
	build    func() *Instance
	opts     ColGenOptions
	matrices func(*testing.T, *Instance)
}

// masterCorpus is TestModelOracle's 150 random instances with the
// stream-10k-hetero epoch, whole and with nodes down, between them: the
// master's LP, layout and price classes grow from a few dozen columns to
// thousands and shrink back several times in one walk.
func masterCorpus(t *testing.T) []masterCase {
	c, hetero := hetero10kOn(t)
	first := hetero()
	rep, all := make([]cluster.NodeID, len(first.Machines)), make([]int, len(first.Machines))
	for l, m := range first.Machines {
		rep[l], all[l] = m.Nodes[0], l
	}
	gone := first.Machines[0].Nodes // every node of unit 0: the unit goes
	shrunk := rep[1]                // one node of unit 1: the unit shrinks
	whole := masterCase{name: "hetero10k", build: hetero, matrices: func(t *testing.T, in *Instance) {
		checkUnitMatrices(t, c, in, rep, all)
	}}
	downed := masterCase{name: "hetero10k-down", build: func() *Instance {
		in := hetero()
		in.FilterMachines(func(n cluster.NodeID) bool { return n != shrunk && !slices.Contains(gone, n) })
		return in
	}, matrices: func(t *testing.T, in *Instance) {
		checkUnitMatrices(t, c, in, rep, all[1:])
	}}
	var out []masterCase
	for seed := int64(0); seed < 150; seed++ {
		switch seed % 50 {
		case 0:
			out = append(out, whole)
		case 25:
			out = append(out, downed)
		}
		rng := rand.New(rand.NewSource(seed))
		in := randomOracleInstance(rng)
		var opts ColGenOptions
		for n := rng.Intn(3); n > 0; n-- {
			opts.SeedMachines = append(opts.SeedMachines, rng.Intn(len(in.Machines)+2)-1)
		}
		out = append(out, masterCase{name: fmt.Sprintf("oracle/%d", seed), build: in.clone, opts: opts})
	}
	return append(out, downed)
}

// masterRun is everything one epoch's master did that must not depend on
// whose storage it ran on: every round's LP as lp.Write text and its solve
// — counters, warm start, primal and dual values and final basis, all as
// bits — then the plan and its rounding.
type masterRun struct {
	Rounds []masterRound
	Err    string

	Objective uint64
	XT        []map[[2]int]float64
	XD        [][]float64
	Rounded   *IntegralPlan
}

type masterRound struct {
	LP          string
	Status      lp.Status
	Iters       int
	Phase1      int
	Refactors   int
	FactorNNZ   int
	WarmStarted bool
	X, Dual     []uint64
	Basis       *lp.Basis
}

// roundRecorder is the master's oracle with a recorder in front: it
// notes each round's LP and solve before the master prices it.
type roundRecorder struct {
	t      *testing.T
	cg     *OnlineColGen
	rounds []masterRound
}

func (r *roundRecorder) Price(p *lp.Problem, sol *lp.Solution) int {
	var text bytes.Buffer
	if err := lp.Write(&text, p); err != nil {
		r.t.Fatal(err)
	}
	r.rounds = append(r.rounds, masterRound{
		LP: text.String(), Status: sol.Status,
		Iters: sol.Iters, Phase1: sol.Phase1, Refactors: sol.Refactorizations, FactorNNZ: sol.FactorNNZ,
		WarmStarted: sol.WarmStarted, X: floatBits(sol.X), Dual: floatBits(sol.Dual), Basis: cloneBasis(sol.Basis),
	})
	return r.cg.Price(p, sol)
}

// cloneBasis copies a round's basis out of the master's solution, which
// the next round overwrites.
func cloneBasis(b *lp.Basis) *lp.Basis {
	if b == nil {
		return nil
	}
	return &lp.Basis{NumVars: b.NumVars, NumCons: b.NumCons, RowCol: slices.Clone(b.RowCol), ColStat: slices.Clone(b.ColStat)}
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// runMaster solves one epoch on cg the way OnlineColGen.Solve does, with
// the recorder between the column-generation loop and the master.
func runMaster(t *testing.T, cg *OnlineColGen) masterRun {
	rec := &roundRecorder{t: t, cg: cg}
	sol := &cg.sol
	_, err := lp.SolveColGen(cg.m.prob, rec, lp.Options{WarmStart: cg.m.parkedBasis()}, sol)
	run := masterRun{Rounds: rec.rounds}
	switch {
	case err != nil:
		run.Err = err.Error()
	case sol.Status != lp.Optimal:
		run.Err = sol.Status.String()
	default:
		plan := cg.m.extract(sol, &cg.xd)
		run.Objective, run.XT, run.XD = math.Float64bits(plan.ObjectiveMC), plan.XT, plan.XD
		run.Rounded = plan.Round()
		run.Rounded.Plan = nil // holds the instance, which differs by address
	}
	return run
}

// TestRecycledMasterMatchesFresh builds and solves every epoch of the
// corpus on a master drawn from the pool and requires the same run as on
// freshly allocated storage: the same LP text in every round, the same
// simplex counters, bases and solution bits, the same plan and the same
// rounding. A hetero instance's pooled matrices are held to the cluster's
// prices first. Whatever a pooled master or a pooled set of instance
// matrices kept from the epoch before — more jobs, more stores, more open
// units, other price classes — must not reach the next one. Several walkers run
// the corpus from different starting points at once, so the pools hand
// storage between concurrent borrowers.
func TestRecycledMasterMatchesFresh(t *testing.T) {
	cases := masterCorpus(t)
	want := make([]masterRun, len(cases))
	for i, c := range cases {
		ms := newMaster()
		if err := ms.build(c.build(), c.opts); err != nil {
			t.Fatalf("%s: fresh master: %v", c.name, err)
		}
		want[i] = runMaster(t, &OnlineColGen{ms})
		if want[i].Err != "" {
			t.Fatalf("%s: fresh master: %s", c.name, want[i].Err)
		}
	}

	const walkers = 4
	for w := 0; w < walkers; w++ {
		start := w * len(cases) / walkers
		t.Run("from-"+cases[start].name, func(t *testing.T) {
			t.Parallel()
			for i := range cases {
				k := (start + i) % len(cases)
				c := cases[k]
				in := c.build()
				if c.matrices != nil {
					c.matrices(t, in)
				}
				cg, err := NewOnlineColGen(in, c.opts)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				got := runMaster(t, cg)
				cg.Release()
				if d := masterRunDiff(want[k], got); d != "" {
					t.Fatalf("%s after %s: %s", c.name, cases[(k+len(cases)-1)%len(cases)].name, d)
				}
			}
		})
	}
}

// masterRunDiff describes the first way got differs from want, or "".
func masterRunDiff(want, got masterRun) string {
	if len(got.Rounds) != len(want.Rounds) {
		return fmt.Sprintf("%d rounds, want %d", len(got.Rounds), len(want.Rounds))
	}
	for r := range want.Rounds {
		w, g := want.Rounds[r], got.Rounds[r]
		if g.LP != w.LP {
			return fmt.Sprintf("round %d: the LP differs from the fresh master's", r)
		}
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("round %d: solve differs: %d/%d iterations (phase 1), %d refactorizations; want %d/%d, %d",
				r, g.Iters, g.Phase1, g.Refactors, w.Iters, w.Phase1, w.Refactors)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return "plan or rounding differs"
	}
	return ""
}
