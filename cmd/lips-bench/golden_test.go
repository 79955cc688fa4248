package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"lips/internal/experiments"
)

// TestQuickGolden pins every byte lips-bench prints for the whole suite
// at quick scale to testdata/quick.golden, except the wall-clock values:
// the durations and pricing share on the `lips solver:` lines, and the
// wall, tasks/s, build and solve cells of the Scale and Overhead tables
// (whose lines also get their tabwriter padding collapsed, since it
// follows those cells' widths). There is no update flag: a change to
// what the suite prints is a change to this file, made by hand.
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := maskWallClock(captureStdout(t, func() error {
		return run("all", experiments.Config{Quick: true, Seed: 42})
	}))
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	err = f()
	os.Stdout = stdout
	w.Close()
	out := <-read
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var (
	solverTimes = regexp.MustCompile(`solve \S+ \(pricing \d+%, factor \S+, ftran \S+, btran \S+\)`)
	msCell      = regexp.MustCompile(`[0-9.]+ ms`)
	lastCell    = regexp.MustCompile(`[0-9]+$`)
)

// maskWallClock blanks the values of out that depend on the host's speed.
func maskWallClock(out string) string {
	lines := strings.Split(out, "\n")
	section := ""
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "== "):
			section = l
		case strings.HasPrefix(l, "lips solver: "):
			lines[i] = solverTimes.ReplaceAllString(l, "solve * (pricing *%, factor *, ftran *, btran *)")
		case l == "":
		case strings.HasPrefix(section, "== Scale "):
			lines[i] = lastCell.ReplaceAllString(msCell.ReplaceAllString(strings.Join(strings.Fields(l), " "), "* ms"), "*")
		case strings.HasPrefix(section, "== §VI-A "):
			lines[i] = msCell.ReplaceAllString(strings.Join(strings.Fields(l), " "), "* ms")
		}
	}
	return strings.Join(lines, "\n")
}
