package lp

import (
	"bytes"
	"math/rand"
	"testing"
)

// schedulingShapedLP builds an LP with the LiPS online-model silhouette:
// jobs × machines × stores assignment variables with coverage, capacity
// and linking rows — the workload this solver exists for.
func schedulingShapedLP(jobs, machines, stores int, rng *rand.Rand) *Problem {
	p := New("sched-shaped")
	cpuRows := make([]Con, machines)
	for l := 0; l < machines; l++ {
		cpuRows[l] = p.AddCon("cpu", LE, 500+rng.Float64()*2000)
	}
	for k := 0; k < jobs; k++ {
		demand := 50 + rng.Float64()*400
		cover := p.AddCon("job", GE, 1)
		for l := 0; l < machines; l++ {
			price := 1 + rng.Float64()*5
			for m := 0; m < stores; m++ {
				transfer := rng.Float64() * 60
				v := p.AddVar("xt", 0, 1, demand*price+transfer)
				p.SetCoef(cover, v, 1)
				p.SetCoef(cpuRows[l], v, demand)
			}
		}
	}
	return p
}

func benchmarkSolve(b *testing.B, jobs, machines, stores int) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	p := schedulingShapedLP(jobs, machines, stores, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

func BenchmarkSolveSmall(b *testing.B)  { benchmarkSolve(b, 5, 6, 6) }
func BenchmarkSolveMedium(b *testing.B) { benchmarkSolve(b, 15, 9, 9) }
func BenchmarkSolveLarge(b *testing.B)  { benchmarkSolve(b, 40, 12, 12) }

func BenchmarkSolveDenseReference(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p := schedulingShapedLP(4, 4, 4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveDense(0); err != nil {
			b.Fatal(err)
		}
	}
}

// epochScaleLP builds the online-model silhouette at the paper's
// 100-node / 1000-task scale: 30 queued jobs × 13 machine units (12 real
// + fake) × 12 store units ≈ 5000 columns over ≈ 800 rows. With prng set
// the capacities, horizons and costs drift by a few percent — the shape
// of two consecutive scheduling epochs.
func epochScaleLP(prng *rand.Rand) *Problem {
	return lipsShapedLP(30, 13, 12, rand.New(rand.NewSource(77)), prng)
}

// BenchmarkEpoch measures one epoch's LP solve the way sched.LiPS runs
// it: cold from scratch (the seed's behaviour), and warm-started from the
// previous epoch's optimal basis (the fast path).
func BenchmarkEpoch(b *testing.B) {
	base := epochScaleLP(nil)
	prev := epochScaleLP(rand.New(rand.NewSource(78)))
	psol, err := prev.Solve(Options{})
	if err != nil {
		b.Fatal(err)
	}
	if psol.Status != Optimal || psol.Basis == nil {
		b.Fatalf("previous epoch: status %v, basis %v", psol.Status, psol.Basis != nil)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sol, err := base.Solve(Options{})
			if err != nil {
				b.Fatal(err)
			}
			if sol.Status != Optimal {
				b.Fatalf("status %v", sol.Status)
			}
			b.ReportMetric(float64(sol.Iters), "iters")
		}
	})
	b.Run("warm", func(b *testing.B) {
		opts := Options{WarmStart: psol.Basis}
		for i := 0; i < b.N; i++ {
			sol, err := base.Solve(opts)
			if err != nil {
				b.Fatal(err)
			}
			if sol.Status != Optimal {
				b.Fatalf("status %v", sol.Status)
			}
			if !sol.WarmStarted {
				b.Fatal("warm start rejected — benchmark would measure a cold solve")
			}
			b.ReportMetric(float64(sol.Iters), "iters")
		}
	})
}

func BenchmarkParse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p := schedulingShapedLP(10, 6, 6, rng)
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
