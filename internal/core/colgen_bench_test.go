package core

import (
	"math/rand"
	"testing"
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
// scratch, as every LiPS.ColGen epoch does. There is no fully
// materialized comparison: at this scale plain model construction
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
}
