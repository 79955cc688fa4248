package obs

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"lips/internal/trace"
)

// TestCLI drives the shared flag block the way a command does: every
// group parses, open brings up the profile, the trace file and the
// listener, and Stop leaves a loadable file behind each path flag.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	c := &CLI{name: "test"}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.register(fs, FlagProfiles|FlagListen|FlagTrace|FlagTraceFormat)
	if err := fs.Parse([]string{"-trace-format", "svg"}); err == nil {
		t.Error("unknown -trace-format accepted")
	}
	err := fs.Parse([]string{
		"-cpuprofile", dir + "/cpu.pb", "-memprofile", dir + "/mem.pb",
		"-trace", dir + "/run.json", "-trace-format", "chrome", "-sample-interval", "30",
		"-listen", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.open(); err != nil {
		t.Fatal(err)
	}
	if c.SampleInterval != 30 || c.Registry == nil || c.Trace == nil {
		t.Fatalf("after open: interval %g, registry %v, trace %v", c.SampleInterval, c.Registry, c.Trace)
	}
	resp, err := http.Get(c.server.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	c.Trace.Emit(trace.Event{T: 1, Kind: trace.KindFault, Fault: &trace.FaultInfo{Kind: "node-down", Node: 0, Store: -1}})
	if err := c.Stop(nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pb", "mem.pb"} {
		if st, err := os.Stat(dir + "/" + name); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", name, err)
		}
	}
	data, err := os.ReadFile(dir + "/run.json")
	if err != nil {
		t.Fatal(err)
	}
	var records []map[string]any
	if err := json.Unmarshal(data, &records); err != nil || len(records) == 0 {
		t.Errorf("-trace-format chrome wrote %q: %v", data, err)
	}

	// No group asked for, none registered; Stop on an idle block is a
	// no-op that hands the run's error back.
	bare := &CLI{name: "bare"}
	fs = flag.NewFlagSet("bare", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bare.register(fs, 0)
	if err := fs.Parse([]string{"-listen", ":0"}); err == nil || !strings.Contains(err.Error(), "listen") {
		t.Errorf("-listen without FlagListen: %v", err)
	}
	if err := bare.Stop(io.EOF); err != io.EOF {
		t.Errorf("Stop(err) = %v, want the error back", err)
	}
}
