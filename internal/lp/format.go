package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The lp package's text format is line-based and trivially diffable:
//
//	problem <name>
//	var <name> <lower> <upper> <cost>     # "inf"/"-inf" allowed as bounds only
//	con <name> <sense> <rhs>              # sense is <=, >= or =
//	coef <con-index> <var-index> <value>  # indices are 0-based declaration order
//	# comment
//
// Coefficients refer to declaration indices rather than names so that
// duplicate names (common in generated models) stay unambiguous.

// Write serialises the problem.
func Write(w io.Writer, p *Problem) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "problem %s\n", sanitize(p.Name()))
	for i := 0; i < p.NumVars(); i++ {
		v := Var(i)
		lo, hi := p.Bounds(v)
		fmt.Fprintf(bw, "var %s %s %s %s\n", sanitize(p.VarName(v)),
			formatBound(lo), formatBound(hi), formatNum(p.Cost(v)))
	}
	for i := 0; i < p.NumCons(); i++ {
		c := Con(i)
		fmt.Fprintf(bw, "con %s %s %s\n", sanitize(p.ConName(c)),
			p.ConSense(c), formatNum(p.ConRHS(c)))
	}
	// Columns in declaration order, each column's entries in stored order:
	// O(nnz), and the text pins the order the simplex sees.
	for vi := range p.vars {
		for _, e := range p.vars[vi].col {
			fmt.Fprintf(bw, "coef %d %d %s\n", e.row, vi, formatNum(e.coef))
		}
	}
	return bw.Flush()
}

// Parse reads a problem in the text format. It rejects, with the line
// number, every value the problem builder would panic on: NaN, inverted
// or wrong-sign infinite bounds, and a non-finite cost, right-hand side
// or coefficient.
func Parse(r io.Reader) (*Problem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	p := New("unnamed")
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "problem":
			if len(fields) != 2 {
				return nil, fmt.Errorf("lp: line %d: problem takes one name", line)
			}
			p.name = fields[1]
		case "var":
			if len(fields) != 5 {
				return nil, fmt.Errorf("lp: line %d: var takes name lower upper cost", line)
			}
			lo, err := parseBound(fields[2])
			if err != nil {
				return nil, fmt.Errorf("lp: line %d: %v", line, err)
			}
			hi, err := parseBound(fields[3])
			if err != nil {
				return nil, fmt.Errorf("lp: line %d: %v", line, err)
			}
			cost, err := parseFinite(fields[4])
			if err != nil {
				return nil, fmt.Errorf("lp: line %d: cost: %v", line, err)
			}
			if fault := varFault(lo, hi, cost); fault != "" {
				return nil, fmt.Errorf("lp: line %d: variable %q %s", line, fields[1], fault)
			}
			p.AddVar(fields[1], lo, hi, cost)
		case "con":
			if len(fields) != 4 {
				return nil, fmt.Errorf("lp: line %d: con takes name sense rhs", line)
			}
			var sense Sense
			switch fields[2] {
			case "<=":
				sense = LE
			case ">=":
				sense = GE
			case "=":
				sense = EQ
			default:
				return nil, fmt.Errorf("lp: line %d: unknown sense %q", line, fields[2])
			}
			rhs, err := parseFinite(fields[3])
			if err != nil {
				return nil, fmt.Errorf("lp: line %d: rhs: %v", line, err)
			}
			p.AddCon(fields[1], sense, rhs)
		case "coef":
			if len(fields) != 4 {
				return nil, fmt.Errorf("lp: line %d: coef takes con var value", line)
			}
			ci, err := strconv.Atoi(fields[1])
			if err != nil || ci < 0 || ci >= p.NumCons() {
				return nil, fmt.Errorf("lp: line %d: bad constraint index %q", line, fields[1])
			}
			vi, err := strconv.Atoi(fields[2])
			if err != nil || vi < 0 || vi >= p.NumVars() {
				return nil, fmt.Errorf("lp: line %d: bad variable index %q", line, fields[2])
			}
			coef, err := parseFinite(fields[3])
			if err != nil {
				return nil, fmt.Errorf("lp: line %d: value: %v", line, err)
			}
			p.SetCoef(Con(ci), Var(vi), coef)
		default:
			return nil, fmt.Errorf("lp: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

func sanitize(s string) string {
	if s == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
			return '_'
		}
		return r
	}, s)
}

func formatBound(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "inf"
	case math.IsInf(f, -1):
		return "-inf"
	default:
		return formatNum(f)
	}
}

func parseBound(s string) (float64, error) {
	switch s {
	case "inf", "+inf":
		return Inf, nil
	case "-inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseFinite parses a cost, right-hand side or coefficient, where the
// problem builder takes only finite numbers.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%q is not a finite number", s)
	}
	return f, err
}

func formatNum(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
