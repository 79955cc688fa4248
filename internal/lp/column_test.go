package lp

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// panicText runs f and returns what it panicked with, "" if it returned.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestUndeclaredIndexPanicsAtTheCall: a coefficient on a row or variable
// that was never declared is a construction bug reported where it is made,
// not an index fault inside a later solve.
func TestUndeclaredIndexPanicsAtTheCall(t *testing.T) {
	p := New("t")
	v := p.AddVar("v", 0, 1, 0)
	c := p.AddCon("c", LE, 1)
	for _, tc := range []struct {
		name, want string
		f          func()
	}{
		{"SetCoef row", "lp: constraint index 7 out of range [0,1)", func() { p.SetCoef(Con(7), v, 1) }},
		{"SetCoef negative row", "lp: constraint index -1 out of range [0,1)", func() { p.SetCoef(Con(-1), v, 1) }},
		{"SetCoef var", "lp: variable index 3 out of range [0,1)", func() { p.SetCoef(c, Var(3), 1) }},
		{"AddCol row", "lp: constraint index 7 out of range [0,1)", func() { p.AddCol(0, 1, 0, []Entry{{c, 1}, {Con(7), 1}}) }},
	} {
		if got := panicText(tc.f); got != tc.want {
			t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
		}
	}
	if p.NumVars() != 1 || p.NumNonzeros() != 0 {
		t.Errorf("rejected calls left %d vars, %d nonzeros", p.NumVars(), p.NumNonzeros())
	}
}

// TestAddColRejectsWhatAddVarAndSetCoefReject covers the value checks and
// AddCol's own ordering rule.
func TestAddColRejectsWhatAddVarAndSetCoefReject(t *testing.T) {
	p := New("t")
	a, b := p.AddCon("a", LE, 1), p.AddCon("b", LE, 1)
	for _, tc := range []struct {
		name, want string
		f          func()
	}{
		{"inverted bounds", "inverted bounds [2, 1]", func() { p.AddCol(2, 1, 0, nil) }},
		{"+inf lower", "infinite bound of the wrong sign", func() { p.AddCol(Inf, Inf, 0, nil) }},
		{"NaN cost", "NaN bound or cost", func() { p.AddCol(0, 1, math.NaN(), nil) }},
		{"NaN coef", "non-finite coefficient", func() { p.AddCol(0, 1, 0, []Entry{{a, math.NaN()}}) }},
		{"inf coef", "non-finite coefficient", func() { p.AddCol(0, 1, 0, []Entry{{a, Inf}}) }},
		{"descending", "not in ascending row order", func() { p.AddCol(0, 1, 0, []Entry{{b, 1}, {a, 1}}) }},
		{"repeated", "not in ascending row order", func() { p.AddCol(0, 1, 0, []Entry{{a, 1}, {a, 1}}) }},
	} {
		if got := panicText(tc.f); !strings.Contains(got, tc.want) {
			t.Errorf("%s: panic %q, want it to mention %q", tc.name, got, tc.want)
		}
	}
}

// TestAddColEqualsAddVarSetCoef builds the same problem both ways —
// across several arena chunks, with zero coefficients to skip — and
// requires the same text and a column that does not alias its neighbour:
// a SetCoef that grows one column leaves the next untouched.
func TestAddColEqualsAddVarSetCoef(t *testing.T) {
	const rows, cols = 5, 3 * minArenaChunk
	whole, piecewise := New("p"), New("p")
	for i := 0; i < rows; i++ {
		whole.AddCon("", GE, float64(i))
		piecewise.AddCon("", GE, float64(i))
	}
	for j := 0; j < cols; j++ {
		var ents []Entry
		v := piecewise.AddVar("", 0, float64(1+j), float64(j%7))
		for i := j % 2; i < rows-1; i++ { // the last row stays free for SetCoef below
			coef := float64((i + j) % 3) // every third is zero
			ents = append(ents, Entry{Con(i), coef})
			piecewise.SetCoef(Con(i), v, coef)
		}
		if got := whole.AddCol(0, float64(1+j), float64(j%7), ents); got != v {
			t.Fatalf("AddCol returned %d, AddVar %d", got, v)
		}
	}
	text := func(p *Problem) string {
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if text(whole) != text(piecewise) {
		t.Fatal("AddCol and AddVar+SetCoef wrote different problems")
	}
	if whole.NumNonzeros() != piecewise.NumNonzeros() || whole.NumNonzeros() == 0 {
		t.Fatalf("nonzeros %d vs %d", whole.NumNonzeros(), piecewise.NumNonzeros())
	}

	// Grow column 0 by a new row and bump one of its existing entries:
	// column 1, carved right behind it, must read as before.
	before := append([]nz(nil), whole.vars[1].col...)
	nnz := whole.NumNonzeros()
	whole.SetCoef(Con(rows-1), Var(0), 9)
	whole.SetCoef(Con(1), Var(0), 1)
	if got := whole.vars[1].col; len(got) != len(before) {
		t.Fatalf("neighbour column now has %d entries, had %d", len(got), len(before))
	}
	for i, e := range whole.vars[1].col {
		if e != before[i] {
			t.Errorf("neighbour entry %d changed from %+v to %+v", i, before[i], e)
		}
	}
	if whole.Coef(Con(rows-1), Var(0)) != 9 || whole.Coef(Con(1), Var(0)) != 2 {
		t.Errorf("column 0 reads %g and %g after SetCoef, want 9 and 2",
			whole.Coef(Con(rows-1), Var(0)), whole.Coef(Con(1), Var(0)))
	}
	if whole.NumNonzeros() != nnz+1 {
		t.Errorf("nonzeros %d after one new entry on %d", whole.NumNonzeros(), nnz)
	}
}

type testNamer struct{}

func (testNamer) VarName(v Var) string { return fmt.Sprintf("x%d", int(v)) }
func (testNamer) ConName(c Con) string { return fmt.Sprintf("r%d", int(c)) }

// TestNamesOnDemand: a name given at AddVar/AddCon wins, the Namer answers
// for the rest — in VarName/ConName, Write and CheckFeasible alike — and
// without either the name is empty.
func TestNamesOnDemand(t *testing.T) {
	p := New("t")
	p.AddCon("", LE, 1)
	p.AddCon("named-row", LE, 1)
	p.AddCol(0, 1, 0, []Entry{{0, 1}})
	p.AddVar("named", 0, 1, 0)
	p.AddVar("", 0, 1, 0)
	if p.VarName(0) != "" || p.ConName(0) != "" {
		t.Errorf("unnamed without a Namer: %q, %q", p.VarName(0), p.ConName(0))
	}
	p.SetNamer(testNamer{})
	for i, want := range []string{"x0", "named", "x2"} {
		if got := p.VarName(Var(i)); got != want {
			t.Errorf("VarName(%d) = %q, want %q", i, got, want)
		}
	}
	for i, want := range []string{"r0", "named-row"} {
		if got := p.ConName(Con(i)); got != want {
			t.Errorf("ConName(%d) = %q, want %q", i, got, want)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"var x0 ", "var named ", "var x2 ", "con r0 ", "con named-row "} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Write output lacks %q:\n%s", want, buf.String())
		}
	}
	if err := p.CheckFeasible([]float64{2, 0, 0}, 1e-9); err == nil || !strings.Contains(err.Error(), `"x0"`) {
		t.Errorf("CheckFeasible bound violation: %v", err)
	}
	p.SetBounds(0, 0, 5)
	if err := p.CheckFeasible([]float64{2, 0, 0}, 1e-9); err == nil || !strings.Contains(err.Error(), `"r0"`) {
		t.Errorf("CheckFeasible row violation: %v", err)
	}
	if got := panicText(func() { p.AddCol(2, 1, 0, nil) }); !strings.Contains(got, `"x3"`) {
		t.Errorf("AddCol names the column it rejects from the Namer: %q", got)
	}
}
