package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome exports the event stream in the Chrome trace-event JSON array
// format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Layout: each run event opens a new process group named after the
// scheduler; within it, thread 0 is the scheduler track (epoch LP spans
// drawn from one epoch event to the next), thread n+1 is node n's task
// track (complete-event slices per finished attempt, with the input
// transfer nested inside), block moves are async "move" spans, injected
// faults are instant events, and samples become counter tracks
// (cumulative dollars by category, task states, free slots).
//
// Timestamps are simulated microseconds (sim seconds × 1e6).
type Chrome struct {
	w      *bufio.Writer
	err    error
	events int

	pid       int
	lastT     float64
	openEpoch *Event // pending epoch span, closed by the next epoch/run/Close
	moveSeq   int
}

// NewChrome returns a Chrome trace-event sink writing to w. Call Close
// to terminate the JSON array.
func NewChrome(w io.Writer) *Chrome {
	c := &Chrome{w: bufio.NewWriter(w)}
	if _, err := c.w.WriteString("[\n"); err != nil {
		c.err = err
	}
	return c
}

// Enabled implements Tracer.
func (c *Chrome) Enabled() bool { return true }

// chromeEvent is one object of the trace-event array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	ID    int            `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func (c *Chrome) write(ev chromeEvent) {
	if c.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		c.err = err
		return
	}
	if c.events > 0 {
		if _, err := c.w.WriteString(",\n"); err != nil {
			c.err = err
			return
		}
	}
	if _, err := c.w.Write(b); err != nil {
		c.err = err
		return
	}
	c.events++
}

// meta emits a metadata record (process_name / thread_name).
func (c *Chrome) meta(name string, tid int, value string) {
	c.write(chromeEvent{Name: name, Ph: "M", Pid: c.pid, Tid: tid,
		Args: map[string]any{"name": value}})
}

// closeEpoch flushes the pending epoch span, ending it at endT.
func (c *Chrome) closeEpoch(endT float64) {
	e := c.openEpoch
	if e == nil {
		return
	}
	c.openEpoch = nil
	ep := e.Epoch
	dur := (endT - e.T) * 1e6
	if dur <= 0 {
		dur = 1
	}
	start := "cold"
	if ep.WarmAccepted {
		start = "warm"
	}
	args := map[string]any{
		"start":    start,
		"jobs":     ep.Jobs,
		"pending":  ep.Pending,
		"iters":    ep.Iters,
		"launched": ep.Launched,
		"deferred": ep.Deferred,
	}
	if ep.BlocksMoved > 0 {
		args["blocks_moved"] = ep.BlocksMoved
	}
	if ep.SolveMS > 0 {
		args["solve_ms"] = ep.SolveMS
		args["pricing_ms"] = ep.PricingMS
		args["factor_ms"] = ep.FactorMS
	}
	c.write(chromeEvent{
		Name: fmt.Sprintf("epoch %d (%s)", ep.Epoch, start),
		Ph:   "X", Ts: e.T * 1e6, Dur: dur, Pid: c.pid, Tid: 0,
		Cat: "epoch", Args: args,
	})
}

// Emit implements Tracer.
func (c *Chrome) Emit(e Event) {
	if e.T > c.lastT {
		c.lastT = e.T
	}
	if c.pid == 0 && e.Kind != KindRun {
		c.pid = 1 // events without a run header still need a process
	}
	switch e.Kind {
	case KindRun:
		c.closeEpoch(c.lastT)
		c.pid++
		r := e.Run
		label := r.Scheduler
		if r.Label != "" {
			label = r.Label + ": " + r.Scheduler
		}
		c.meta("process_name", 0, fmt.Sprintf("run %d — %s (%d nodes, %d jobs, %d tasks)",
			c.pid-1, label, r.Nodes, r.Jobs, r.Tasks))
		c.meta("thread_name", 0, "scheduler")
		for n := 0; n < r.Nodes; n++ {
			name := fmt.Sprintf("node-%d", n)
			if n < len(r.Types) {
				name += " " + r.Types[n]
			}
			if n < len(r.Zones) {
				name += " @" + r.Zones[n]
			}
			c.meta("thread_name", n+1, name)
		}
	case KindDone:
		t := e.Task
		start := e.T - t.DurSec
		name := fmt.Sprintf("j%d/t%d", t.Job, t.Task)
		if t.Speculative {
			name += " (spec)"
		}
		c.write(chromeEvent{
			Name: name, Ph: "X", Ts: start * 1e6, Dur: t.DurSec * 1e6,
			Pid: c.pid, Tid: t.Node + 1, Cat: "task",
			Args: map[string]any{
				"store":   t.Store,
				"attempt": t.Attempt,
				"cpu_sec": t.CPUSec,
				"cost_uc": t.CostUC,
			},
		})
		if t.XferSec > 0 {
			c.write(chromeEvent{
				Name: "xfer", Ph: "X", Ts: start * 1e6, Dur: t.XferSec * 1e6,
				Pid: c.pid, Tid: t.Node + 1, Cat: "xfer",
			})
		}
	case KindKill:
		t := e.Task
		c.write(chromeEvent{
			Name: fmt.Sprintf("kill j%d/t%d: %s", t.Job, t.Task, t.Reason),
			Ph:   "i", Ts: e.T * 1e6, Pid: c.pid, Tid: t.Node + 1,
			Scope: "t", Cat: "kill",
			Args: map[string]any{"cost_uc": t.CostUC},
		})
	case KindEpoch:
		c.closeEpoch(e.T)
		ev := e
		c.openEpoch = &ev
	case KindMove:
		m := e.Move
		c.moveSeq++
		args := map[string]any{"mb": m.MB, "src": m.Src, "dst": m.Dst, "reason": m.Reason}
		name := fmt.Sprintf("move o%d/b%d", m.Object, m.Block)
		c.write(chromeEvent{Name: name, Ph: "b", Ts: e.T * 1e6,
			Pid: c.pid, Tid: 0, Cat: "move", ID: c.moveSeq, Args: args})
		c.write(chromeEvent{Name: name, Ph: "e", Ts: (e.T + m.DurSec) * 1e6,
			Pid: c.pid, Tid: 0, Cat: "move", ID: c.moveSeq})
		if e.T+m.DurSec > c.lastT {
			c.lastT = e.T + m.DurSec
		}
	case KindFault:
		f := e.Fault
		target := ""
		switch {
		case f.Node >= 0:
			target = fmt.Sprintf(" node-%d", f.Node)
		case f.Store >= 0:
			target = fmt.Sprintf(" store-%d", f.Store)
		}
		c.write(chromeEvent{
			Name: "fault: " + f.Kind + target,
			Ph:   "i", Ts: e.T * 1e6, Pid: c.pid, Tid: 0, Scope: "p", Cat: "fault",
		})
	case KindSample:
		s := e.Sample
		ts := e.T * 1e6
		c.write(chromeEvent{Name: "cost ($)", Ph: "C", Ts: ts, Pid: c.pid, Tid: 0,
			Args: map[string]any{
				"cpu":         float64(s.CPUUC) / 1e8,
				"transfer":    float64(s.TransferUC) / 1e8,
				"placement":   float64(s.PlacementUC) / 1e8,
				"speculative": float64(s.SpeculativeUC) / 1e8,
				"fault":       float64(s.FaultUC) / 1e8,
			}})
		c.write(chromeEvent{Name: "tasks", Ph: "C", Ts: ts, Pid: c.pid, Tid: 0,
			Args: map[string]any{
				"running": s.Running, "queued": s.Queued, "pending": s.Pending,
			}})
		c.write(chromeEvent{Name: "free slots", Ph: "C", Ts: ts, Pid: c.pid, Tid: 0,
			Args: map[string]any{"free": s.FreeSlots}})
	}
}

// Events returns how many trace-array records were written.
func (c *Chrome) Events() int { return c.events }

// Close ends the pending epoch span, terminates the JSON array and
// flushes, returning the first error encountered.
func (c *Chrome) Close() error {
	c.closeEpoch(c.lastT)
	if c.err != nil {
		return c.err
	}
	if _, err := c.w.WriteString("\n]\n"); err != nil {
		return err
	}
	return c.w.Flush()
}
