package lips

import (
	"testing"

	"lips/internal/experiments"
)

// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation, one sub-benchmark per experiments.All entry, at Quick
// scale so that `go test -bench=.` finishes promptly; cmd/lips-bench
// -full runs the paper-size configurations.
func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Config{Quick: true, Seed: 42}
	for _, e := range experiments.All {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out, err := e.Run(cfg); err != nil || out == "" {
					b.Fatalf("%d bytes of output, error %v", len(out), err)
				}
			}
		})
	}
}
