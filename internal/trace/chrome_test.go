package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the Chrome exporter golden file")

// chromeFixture exercises every exporter branch: run header with node
// tracks, done slices with nested transfer, a kill instant, two epoch
// spans (the first closed by the second, the second by Close), a move
// async pair, a fault instant and a sample's counter tracks.
func chromeFixture() []Event {
	return []Event{
		{T: 0, Kind: KindRun, Run: &RunInfo{Scheduler: "lips(e=600s)", Nodes: 2, Stores: 2,
			Jobs: 1, Tasks: 2, Slots: []int{2, 2}, Types: []string{"m1.medium", "c1.medium"},
			Zones: []string{"us-east-1a", "us-east-1b"}, Label: "golden"}},
		{T: 0, Kind: KindSample, Sample: &SampleInfo{Pending: 2, FreeSlots: 4, LiveSlots: 4}},
		{T: 600, Kind: KindEpoch, Epoch: &EpochInfo{Scheduler: "lips(e=600s)", Epoch: 1,
			Jobs: 1, Pending: 2, Iters: 9, Launched: 2, BlocksMoved: 1}},
		{T: 600, Kind: KindMove, Move: &MoveInfo{Object: 0, Block: 3, Src: 1, Dst: 0,
			MB: 64, DurSec: 12, CostUC: 5000, Reason: "plan"}},
		{T: 700, Kind: KindFault, Fault: &FaultInfo{Kind: "node-down", Node: 1, Store: -1, DurationSec: 50}},
		{T: 705, Kind: KindKill, Task: &TaskInfo{Job: 0, Task: 1, Node: 1, Store: -1, Reason: "node-crash"}},
		{T: 720, Kind: KindDone, Task: &TaskInfo{Job: 0, Task: 0, Node: 0, Store: 0,
			Attempt: 1, DurSec: 100, XferSec: 10, CPUSec: 90, CostUC: 120000}},
		{T: 1200, Kind: KindEpoch, Epoch: &EpochInfo{Scheduler: "lips(e=600s)", Epoch: 2,
			Jobs: 1, Pending: 1, Iters: 3, Phase1: 2, Launched: 1}},
		{T: 1300, Kind: KindDone, Task: &TaskInfo{Job: 0, Task: 1, Node: 0, Store: 1,
			Attempt: 2, DurSec: 95, CPUSec: 95, CostUC: 110000}},
	}
}

func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChrome(&buf)
	for _, e := range chromeFixture() {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	const golden = "testdata/chrome.golden.json"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome output drifted from %s (run with -update to regenerate):\n%s", golden, buf.String())
	}
}

// TestChromeWellFormed checks structural invariants the golden bytes
// alone don't explain: valid JSON array, phase inventory, both epoch
// spans closed, matching async begin/end pair.
func TestChromeWellFormed(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChrome(&buf)
	for _, e := range chromeFixture() {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	if sink.Events() != len(records) {
		t.Errorf("Events() = %d, decoded %d records", sink.Events(), len(records))
	}
	phases := map[string]int{}
	epochs, moves := 0, 0
	for _, r := range records {
		ph := r["ph"].(string)
		phases[ph]++
		if r["cat"] == "epoch" {
			epochs++
			if _, ok := r["dur"]; !ok {
				t.Errorf("epoch span without duration: %v", r)
			}
		}
		if r["cat"] == "move" {
			moves++
		}
	}
	// 3 thread_name + 1 process_name metadata, per-fixture counts below.
	for ph, want := range map[string]int{"M": 4, "X": 5, "i": 2, "b": 1, "e": 1, "C": 3} {
		if phases[ph] != want {
			t.Errorf("phase %q count = %d, want %d (all: %v)", ph, phases[ph], want, phases)
		}
	}
	if epochs != 2 {
		t.Errorf("epoch spans = %d, want 2 (second must be closed by Close)", epochs)
	}
	if moves != 2 {
		t.Errorf("move records = %d, want b+e pair", moves)
	}
}
