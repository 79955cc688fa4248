// Package stat holds the arithmetic the benchmark and bench/cmp share:
// order statistics over timing samples, and the summary of a result set
// (one JSON line per run) into per workload × metric medians and
// quartiles.
package stat

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// MinTail is how many samples must lie beyond a reported percentile: with
// fewer, the number is one or two outliers rather than a tail.
const MinTail = 10

// Percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule. ok is false, and the value the largest quantile the
// sample does support, when fewer than MinTail samples lie beyond q: a
// caller that asked for a p99 of 300 samples gets the p96 and is told so.
// An empty sample yields (0, false).
func Percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1 // 0.9·10 must not round up to rank 10
	if idx < 0 {
		idx = 0
	}
	ok = n-1-idx >= MinTail || q <= 0.5
	if !ok {
		if idx = n - 1 - MinTail; idx < n/2 {
			idx = n / 2
		}
	}
	return s[idx], ok
}

// Median is the mean of the middle one or two samples; 0 for none.
func Median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the harness that accepts this benchmark computes. Fewer than two
// samples have no spread: both quartiles are the sample.
func Quartiles(samples []float64) (q1, q3 float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return samples[0], samples[0]
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Position i·(n+1)/4 on a 1-based scale; like Python, clamp the
		// interval and let delta extrapolate from it on tiny samples.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Run is one benchmark run as the program prints it, plus the fields a
// result set adds to tell runs apart.
type Run struct {
	Workload  string             `json:"workload,omitempty"`
	Seed      int64              `json:"seed,omitempty"`
	Trace     bool               `json:"trace,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]Reading `json:"metrics"`
}

// Reading is one metric of one run.
type Reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Summary is the spread of one workload × metric over a result set.
type Summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Spread is the quartile distance as a share of the median.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// ReadRuns parses a result set: one Run per line, blank lines skipped.
func ReadRuns(r io.Reader) ([]Run, error) {
	var runs []Run
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var run Run
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		runs = append(runs, run)
	}
	return runs, sc.Err()
}

// Summarize folds runs into workload → metric → Summary. Runs that were
// not correct still count: a set with failures is compared as it is and
// the failure shows in the failed_frac row.
func Summarize(runs []Run) map[string]map[string]Summary {
	values := make(map[string]map[string][]float64)
	units := make(map[string]string)
	add := func(w, m, unit string, v float64) {
		if values[w] == nil {
			values[w] = make(map[string][]float64)
		}
		values[w][m] = append(values[w][m], v)
		units[m] = unit
	}
	for _, run := range runs {
		for m, rd := range run.Metrics {
			add(run.Workload, m, rd.Unit, rd.Value)
		}
		if !run.Trace && run.Attempted > 0 {
			add(run.Workload, FailedFrac, "frac", float64(run.Failed)/float64(run.Attempted))
		}
	}
	out := make(map[string]map[string]Summary, len(values))
	for w, ms := range values {
		out[w] = make(map[string]Summary, len(ms))
		for m, vs := range ms {
			q1, q3 := Quartiles(vs)
			out[w][m] = Summary{Unit: units[m], N: len(vs), Median: Median(vs), Q1: q1, Q3: q3}
		}
	}
	return out
}

// FailedFrac names the row Summarize derives from a run's failed and
// attempted counts. It is compared like a metric with bound 0.
const FailedFrac = "failed_frac"
