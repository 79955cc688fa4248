package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into the program, recorded from outside it.
// Parent is the span that was open on the same goroutine when this one
// began (-1 at the top); Ref is the epoch or request the call belongs to.
type span struct {
	Name   string
	Parent int32
	Ref    int32
	Start  int64 // ns since the tracer's origin
	End    int64
}

// tracer keeps the spans of one goroutine in memory. A nil *tracer
// records nothing, so the untraced pass runs the same code with only a
// nil check per call site.
type tracer struct {
	label string
	t0    time.Time
	spans []span
	open  []int32
	forks []*tracer
}

func newTracer(label string) *tracer {
	return &tracer{label: label, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// fork returns a tracer for a second goroutine of the same round, on the
// same clock. Its spans are written with the parent's.
func (t *tracer) fork(label string) *tracer {
	if t == nil {
		return nil
	}
	f := &tracer{label: t.label + "." + label, t0: t.t0}
	t.forks = append(t.forks, f)
	return f
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, ref int) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Ref: int32(ref), Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans nest: the one closed must be
// the innermost open one.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover — the time spent in the call itself rather than in the
// calls the benchmark made inside it.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// byName groups span durations (ms) by span name.
func byName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

type spanLine struct {
	G      string `json:"g"`
	ID     int    `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Ref    int32  `json:"ref"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// writeSpans writes every tracer's spans as JSON lines under dir.
func writeSpans(dir, file string, tracers []*tracer) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; i < len(tracers); i++ {
		t := tracers[i]
		tracers = append(tracers, t.forks...)
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			line := spanLine{G: t.label, ID: i, Parent: s.Parent, Name: s.Name, Ref: s.Ref, Start: s.Start, End: s.End, Self: self[i]}
			if err := enc.Encode(line); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
