// Command lips-lp solves a linear program written in the lp package's
// text format and prints the solution.
//
// Usage:
//
//	lips-lp [-bland] [-max-iters N] [-duals]
//	        [-cpuprofile FILE] [-memprofile FILE] [file]
//
// With no file, the problem is read from standard input. The format:
//
//	problem <name>
//	var <name> <lower> <upper> <cost>     # bounds may be inf / -inf
//	con <name> <sense> <rhs>              # sense: <=  >=  =
//	coef <con-index> <var-index> <value>  # 0-based declaration order
//
// Minimization is implied. Bounds, costs, right-hand sides and
// coefficients must be numbers (bounds may also be infinite); a file that
// breaks the format exits 1, and a problem with no optimum exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lips/internal/lp"
	"lips/internal/obs"
)

// cliOpts carries the command-line knobs into run.
type cliOpts struct {
	bland    bool
	maxIters int
	duals    bool
}

func main() {
	var o cliOpts
	flag.BoolVar(&o.bland, "bland", false, "force Bland's anti-cycling rule")
	flag.IntVar(&o.maxIters, "max-iters", 0, "iteration budget (0 = automatic)")
	flag.BoolVar(&o.duals, "duals", false, "also print the dual values")
	cli := obs.NewCLI("lips-lp", obs.FlagProfiles)
	cli.Start()
	cli.Logger.Debug("lp config", "bland", o.bland)

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		cli.ExitOn(err)
		defer f.Close()
		in = f
	}
	code, err := run(in, os.Stdout, o)
	if err = cli.Stop(err); err != nil {
		fmt.Fprintln(os.Stderr, "lips-lp:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run parses, solves and prints; it returns the process exit code.
func run(in io.Reader, out io.Writer, o cliOpts) (int, error) {
	if o.maxIters < 0 {
		return 1, fmt.Errorf("-max-iters must be at least 0, got %d", o.maxIters)
	}
	p, err := lp.Parse(in)
	if err != nil {
		return 1, err
	}
	sol, err := p.Solve(lp.Options{Bland: o.bland, MaxIters: o.maxIters})
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "problem %s: %d variables, %d constraints, %d nonzeros\n",
		p.Name(), p.NumVars(), p.NumCons(), p.NumNonzeros())
	fmt.Fprintf(out, "status: %v (%d iterations, %d in phase 1)\n", sol.Status, sol.Iters, sol.Phase1)
	if sol.Status != lp.Optimal {
		return 2, nil
	}
	fmt.Fprintf(out, "objective: %g\n", sol.Objective)
	for i := 0; i < p.NumVars(); i++ {
		v := lp.Var(i)
		if x := sol.Value(v); x != 0 {
			fmt.Fprintf(out, "  %s = %g\n", p.VarName(v), x)
		}
	}
	if o.duals {
		fmt.Fprintln(out, "duals:")
		for i := 0; i < p.NumCons(); i++ {
			fmt.Fprintf(out, "  %s = %g\n", p.ConName(lp.Con(i)), sol.Dual[i])
		}
	}
	return 0, nil
}
