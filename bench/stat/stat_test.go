package stat

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// 100 samples leave exactly ten beyond the p90, so it stands; the p95
	// has five beyond it and is refused in favour of what the sample does
	// support.
	s := seq(100)
	if v, ok := Percentile(s, 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := Percentile(s, 0.95); ok || v != 90 {
		t.Errorf("p95 of 1..100 = %v, %v; want the p90 (90) and false", v, ok)
	}
	if _, ok := Percentile(seq(99), 0.90); ok {
		t.Error("p90 of 99 samples has nine beyond it and must be refused")
	}
	// A median needs no tail, and a tiny sample falls back to it.
	if v, ok := Percentile(seq(5), 0.50); !ok || v != 3 {
		t.Errorf("p50 of 1..5 = %v, %v; want 3, true", v, ok)
	}
	if v, ok := Percentile(seq(5), 0.99); ok || v != 3 {
		t.Errorf("p99 of 1..5 = %v, %v; want the median (3) and false", v, ok)
	}
	if v, ok := Percentile(nil, 0.5); ok || v != 0 {
		t.Errorf("empty sample = %v, %v; want 0, false", v, ok)
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	s := []float64{3, 1, 2}
	Percentile(s, 0.5)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Errorf("input reordered: %v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{9, 1, 5, 3}, 1.5, 8},
	} {
		q1, q3 := Quartiles(tc.in)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSummarize(t *testing.T) {
	set := `{"workload":"w","correct":true,"attempted":10,"failed":0,"metrics":{"x":{"value":1,"unit":"ms"}}}

{"workload":"w","correct":true,"attempted":10,"failed":1,"metrics":{"x":{"value":3,"unit":"ms"}}}
{"workload":"w","trace":true,"correct":true,"attempted":10,"failed":5,"metrics":{"layer.y":{"value":7,"unit":"count"}}}
`
	runs, err := ReadRuns(strings.NewReader(set))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("read %d runs, want 3", len(runs))
	}
	sum := Summarize(runs)["w"]
	if x := sum["x"]; x.N != 2 || x.Median != 2 || x.Unit != "ms" {
		t.Errorf("x = %+v", x)
	}
	// failed_frac comes from the untraced runs only.
	if f := sum[FailedFrac]; f.N != 2 || f.Median != 0.05 {
		t.Errorf("failed_frac = %+v", f)
	}
	if y := sum["layer.y"]; y.N != 1 || y.Median != 7 {
		t.Errorf("layer.y = %+v", y)
	}
}
