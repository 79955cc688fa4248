package metrics

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"lips/internal/lp"
)

func TestSolverStatsAccounting(t *testing.T) {
	var ss SolverStats
	ss.Observe(lp.Stats{Iters: 100, Phase1: 40, PricingTime: 2 * time.Millisecond}, 2, 10*time.Millisecond, 2, 30)
	ss.Observe(lp.Stats{Iters: 5, PricingTime: 200 * time.Microsecond}, 1, time.Millisecond, 1, 0)
	ss.Observe(lp.Stats{Iters: 80, Phase1: 30, PricingTime: time.Millisecond}, 3, 8*time.Millisecond, 3, 12)

	if ss.Solves != 6 || ss.Iters != 185 || ss.Phase1 != 70 {
		t.Fatalf("counts: %+v", ss)
	}
	if ss.SolveTime != 19*time.Millisecond {
		t.Fatalf("solve time: %v", ss.SolveTime)
	}
	if ss.ColGenRounds != 6 || ss.ColGenColumns != 42 {
		t.Fatalf("colgen: %d rounds/%d columns", ss.ColGenRounds, ss.ColGenColumns)
	}
	if a := ss.AvgIters(); a != 185.0/6 {
		t.Fatalf("avg iters: %g", a)
	}
	want := "6 solves, 185 iters (30.8 avg/solve, 70 phase1), solve 19ms (pricing 17%, factor 0s, ftran 0s, btran 0s), 0 refactor (0 nnz), colgen 6 rounds/42 columns"
	if s := ss.String(); s != want {
		t.Fatalf("string:\n got %q\nwant %q", s, want)
	}
}

func TestSolverStatsEmpty(t *testing.T) {
	var ss SolverStats
	if ss.AvgIters() != 0 || ss.PricingShare() != 0 {
		t.Fatal("empty stats should report zeros")
	}
	if s := ss.String(); strings.Contains(s, "colgen") {
		t.Fatalf("no colgen rounds, yet %q", s)
	}
}

// TestSolverStatsCarriesEveryLPStat ends the hand-copy class of bug: every
// live field of lp.Stats — today's nine and any added later — must come
// through Observe into the totals, through Merge into a suite's totals, and
// into what String prints. A tenth counter that lp.Stats.Add or String
// does not know fails here instead of going quietly missing. The two
// deprecated presolve counts, always 0, are exempt.
func TestSolverStatsCarriesEveryLPStat(t *testing.T) {
	deprecated := map[string]bool{"PresolveRows": true, "PresolveCols": true}
	primes := []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}
	var st lp.Stats
	v := reflect.ValueOf(&st).Elem()
	if v.NumField() > len(primes) {
		t.Fatalf("lp.Stats has %d fields: extend primes", v.NumField())
	}
	// scale is the unit one step of the field is worth.
	scale := func(f reflect.Value) int64 {
		switch f.Interface().(type) {
		case int:
			return 1
		case time.Duration:
			return int64(time.Millisecond)
		}
		t.Fatalf("lp.Stats has a %s field: teach this test its unit", f.Type())
		return 0
	}
	for i := 0; i < v.NumField(); i++ {
		if !deprecated[v.Type().Field(i).Name] {
			v.Field(i).SetInt(primes[i] * scale(v.Field(i)))
		}
	}

	var ss SolverStats
	ss.Observe(st, 1, time.Second, 0, 0)
	if ss.Stats != st {
		t.Errorf("one Observe:\n got %+v\nwant %+v", ss.Stats, st)
	}
	var suite SolverStats
	suite.Merge(ss)
	suite.Merge(ss)
	suite.Merge(SolverStats{}) // a run that never solved changes nothing
	got := reflect.ValueOf(suite.Stats)
	for i := 0; i < v.NumField(); i++ {
		name, want := v.Type().Field(i).Name, 2*v.Field(i).Int()
		if name == "FactorNNZ" { // the last solve's, not a sum
			want = v.Field(i).Int()
		}
		if got.Field(i).Int() != want {
			t.Errorf("two merged runs: %s = %d, want %d", name, got.Field(i).Int(), want)
		}
	}

	line := ss.String()
	for i := 0; i < v.NumField(); i++ {
		if deprecated[v.Type().Field(i).Name] {
			continue
		}
		moved := ss
		f := reflect.ValueOf(&moved.Stats).Elem().Field(i)
		f.SetInt(f.Int() + 50*scale(f))
		if moved.String() == line {
			t.Errorf("String ignores %s: %q", v.Type().Field(i).Name, line)
		}
	}
}
