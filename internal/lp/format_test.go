package lp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatRoundTrip(t *testing.T) {
	p := New("demo problem")
	x := p.AddVar("x one", 0, 3, -1)
	y := p.AddVar("y", -2, Inf, 2.5)
	z := p.AddVar("z", math.Inf(-1), Inf, 0)
	c1 := p.AddCon("cap", LE, 4)
	p.SetCoef(c1, x, 1)
	p.SetCoef(c1, y, 1.5)
	c2 := p.AddCon("bal", EQ, 0)
	p.SetCoef(c2, y, 1)
	p.SetCoef(c2, z, -1)
	c3 := p.AddCon("floor", GE, -3)
	p.SetCoef(c3, z, 2)

	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "demo_problem" {
		t.Errorf("name = %q", q.Name())
	}
	if q.NumVars() != 3 || q.NumCons() != 3 {
		t.Fatalf("shape %d/%d", q.NumVars(), q.NumCons())
	}
	for i := 0; i < 3; i++ {
		lo1, hi1 := p.Bounds(Var(i))
		lo2, hi2 := q.Bounds(Var(i))
		if lo1 != lo2 || hi1 != hi2 || p.Cost(Var(i)) != q.Cost(Var(i)) {
			t.Errorf("var %d mismatch", i)
		}
		for j := 0; j < 3; j++ {
			if p.Coef(Con(j), Var(i)) != q.Coef(Con(j), Var(i)) {
				t.Errorf("coef (%d,%d) mismatch", j, i)
			}
		}
	}
	// Same optimum on both.
	a, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != b.Status {
		t.Fatalf("status %v vs %v", a.Status, b.Status)
	}
	if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Errorf("objective %g vs %g", a.Objective, b.Objective)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"nonsense 1 2\n",
		"var onlyname\n",
		"var x bad 1 0\n",
		"var x 0 bad 0\n",
		"var x 0 1 bad\n",
		"con c ?? 3\n",
		"con c <= bad\n",
		"con c <=\n",
		"coef 0 0 1\n",                          // no con/var declared
		"var x 0 1 0\ncon c <= 1\ncoef 5 0 1\n", // bad indices
		"var x 0 1 0\ncon c <= 1\ncoef 0 9 1\n",
		"var x 0 1 0\ncon c <= 1\ncoef 0 0 bad\n",
		"problem a b\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
	// Values the problem builder would panic on (or, for an infinite cost,
	// solve to a NaN objective): each is a parse error naming its line.
	for _, bad := range []string{
		"var x 5 1 0\n",
		"var x nan 1 0\n",
		"var x 0 nan 0\n",
		"var x inf inf 0\n",
		"var x -inf -inf 0\n",
		"var x 0 1 nan\n",
		"var x 0 1 inf\n",
		"var x 0 1 -inf\n",
		"con c <= nan\n",
		"con c <= inf\n",
		"con c >= -inf\n",
		"var x 0 1 0\ncon c <= 1\ncoef 0 0 inf\n",
		"var x 0 1 0\ncon c <= 1\ncoef 0 0 nan\n",
	} {
		line := strings.Count(bad, "\n")
		_, err := Parse(strings.NewReader(bad))
		if want := fmt.Sprintf("lp: line %d: ", line); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want an error starting %q", bad, err, want)
		}
	}
	// Comments and blanks are fine.
	p, err := Parse(strings.NewReader("# header\n\nproblem p\nvar x 0 inf 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars() != 1 {
		t.Error("comment handling broken")
	}
}

func TestQuickFormatRoundTripSolves(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			return false
		}
		q, err := Parse(&buf)
		if err != nil {
			t.Logf("seed %d: parse: %v", seed, err)
			return false
		}
		a, err := p.Solve(Options{})
		if err != nil {
			return false
		}
		b, err := q.Solve(Options{})
		if err != nil {
			return false
		}
		if a.Status != b.Status {
			t.Logf("seed %d: status %v vs %v", seed, a.Status, b.Status)
			return false
		}
		if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-6*(1+math.Abs(a.Objective)) {
			t.Logf("seed %d: obj %g vs %g", seed, a.Objective, b.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
