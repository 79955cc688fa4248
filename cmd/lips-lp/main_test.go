package main

import (
	"bytes"
	"strings"
	"testing"
)

const demoLP = `problem demo
var x 0 3 -1
var y 0 2 -2
con cap <= 4
coef 0 0 1
coef 0 1 1
`

func TestRunOptimal(t *testing.T) {
	var out bytes.Buffer
	code, err := run(strings.NewReader(demoLP), &out, cliOpts{duals: true})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	got := out.String()
	for _, want := range []string{"status: optimal", "objective: -6", "x = 2", "y = 2", "duals:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunInfeasible(t *testing.T) {
	var out bytes.Buffer
	code, err := run(strings.NewReader("var x 0 1 1\ncon c >= 5\ncoef 0 0 1\n"), &out, cliOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("code = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "infeasible") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunParseError(t *testing.T) {
	var out bytes.Buffer
	code, err := run(strings.NewReader("garbage\n"), &out, cliOpts{})
	if err == nil || code != 1 {
		t.Errorf("code=%d err=%v", code, err)
	}
}

func TestRunBland(t *testing.T) {
	var out bytes.Buffer
	code, err := run(strings.NewReader(demoLP), &out, cliOpts{bland: true, maxIters: 100})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
}

func TestRunBadKnob(t *testing.T) {
	var out bytes.Buffer
	code, err := run(strings.NewReader(demoLP), &out, cliOpts{maxIters: -1})
	if err == nil || code != 1 {
		t.Errorf("-max-iters -1: code=%d err=%v, want rejection", code, err)
	}
}
