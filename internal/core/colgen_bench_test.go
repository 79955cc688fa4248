package core

import (
	"math/rand"
	"testing"

	"lips/internal/lp"
)

// epoch10kInstance is one epoch of a 10k-machine cluster: 40 jobs, 12
// stores, machines drawn from 6 price classes. The fully materialized
// online LP over it would carry ~5M x^t columns and ~400k transfer rows —
// the cross product the restricted master exists to avoid.
func epoch10kInstance() *Instance {
	rng := rand.New(rand.NewSource(777))
	in := synthInstance(40, 10000, 12, 6, false, rng)
	fillSS(in, rng)
	return in
}

// BenchmarkEpoch10k measures the column-generation epoch solve at
// 10k-machine scale: cold builds and solves the restricted master from
// scratch; warm reprices a standing master with per-class spot drift and
// re-solves from the previous basis via dual-simplex repair. There is no
// fully materialized comparison: at this scale plain model construction
// allocates millions of columns (DESIGN.md §12).
func BenchmarkEpoch10k(b *testing.B) {
	base := epoch10kInstance()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan, st, err := SolveOnlineColGen(base.clone(), ColGenOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(st.Columns), "columns")
				b.ReportMetric(float64(st.Rounds), "rounds")
				_ = plan
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		cg, err := NewOnlineColGen(base.clone(), ColGenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		plan, _, err := cg.Solve(ColGenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		drift := rand.New(rand.NewSource(42))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Per-class spot drift, mirroring PriceMultiplier: every
			// machine of a type moves together, so buckets stay intact.
			next := cg.m.In.clone()
			mult := map[float64]float64{}
			for l := range next.Machines {
				if next.Machines[l].Fake {
					continue
				}
				p := next.Machines[l].PerECUSecMC
				if _, ok := mult[p]; !ok {
					mult[p] = 0.92 + 0.16*drift.Float64()
				}
				next.Machines[l].PerECUSecMC = p * mult[p]
			}
			b.StartTimer()
			if err := cg.Reprice(next); err != nil {
				b.Fatal(err)
			}
			warm, st, err := cg.Resolve(ColGenOptions{LP: lp.Options{Dual: true}}, plan.Basis)
			if err != nil {
				b.Fatal(err)
			}
			plan = warm
			if i == 0 {
				b.ReportMetric(float64(st.DualIters), "dualpivots")
			}
		}
	})
}
