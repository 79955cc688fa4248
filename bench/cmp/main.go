// Command cmp compares result sets recorded with bench --out.
//
//	go run ./bench/cmp base.jsonl new.jsonl   one row per workload × metric:
//	                                          worse, same or unresolved
//	go run ./bench/cmp set.jsonl              the set's own spread per row
//
// Bounds and directions come from BENCHMARK.json in the working directory.
// A row is worse when the new median is worse than the base median by more
// than the metric's bound, unresolved when it is not worse but the
// run-to-run quartile spread of either set is wider than the bound (so
// "same" cannot be told from "moved"), and same otherwise. failed_frac,
// derived from each run's failed/attempted, has bound 0: any increase is
// worse. The exit status is 1 if any row is worse.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"lips/bench/stat"
)

type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	if len(os.Args) != 2 && len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: cmp base.jsonl [new.jsonl]")
		os.Exit(2)
	}
	worse, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmp:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}

func run(files []string) (worse bool, err error) {
	metrics, err := endToEnd("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	sets := make([]map[string]map[string]stat.Summary, len(files))
	for i, f := range files {
		if sets[i], err = load(f); err != nil {
			return false, err
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if len(sets) == 1 {
		fmt.Fprintln(tw, "workload\tmetric\tn\tmedian\tq1\tq3\tspread\tbound\t")
	} else {
		fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tchange\tbound\tspread\tverdict\t")
	}
	for _, w := range sortedKeys(sets[0]) {
		for _, m := range metrics {
			base, ok := sets[0][w][m.Name]
			if !ok {
				continue
			}
			if len(sets) == 1 {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g %s\t%.6g\t%.6g\t%.2f%%\t%.2f%%\t\n",
					w, m.Name, base.N, base.Median, base.Unit, base.Q1, base.Q3, 100*base.Spread(), 100*m.Bound)
				continue
			}
			next, ok := sets[1][w][m.Name]
			if !ok {
				return false, fmt.Errorf("%s has no %s × %s", files[1], w, m.Name)
			}
			v, change := verdict(m, base, next)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%s\t\n",
				w, m.Name, base.Median, base.Unit, next.Median, 100*change, 100*m.Bound,
				100*max(base.Spread(), next.Spread()), v)
		}
	}
	return worse, tw.Flush()
}

// verdict compares two summaries of one workload × metric. change is the
// relative move of the median in the direction that is worse.
func verdict(m spec, base, next stat.Summary) (v string, change float64) {
	delta := next.Median - base.Median
	if m.Better == "higher" {
		delta = -delta
	}
	switch {
	case base.Median != 0:
		change = delta / math.Abs(base.Median)
	case delta > 0:
		change = 1 // from nothing to something: worse by any bound
	}
	switch {
	case change > m.Bound:
		return "worse", change
	case max(base.Spread(), next.Spread()) > m.Bound:
		return "unresolved", change
	}
	return "same", change
}

// endToEnd reads the bounded metrics from BENCHMARK.json and adds the
// failed_frac row every result set carries.
func endToEnd(path string) ([]spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var doc struct {
		EndToEnd []spec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(doc.EndToEnd, spec{Name: stat.FailedFrac, Unit: "frac", Better: "lower"}), nil
}

func load(path string) (map[string]map[string]stat.Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := stat.ReadRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return stat.Summarize(runs), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
