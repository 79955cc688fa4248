package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestNopTracerNoAllocs pins the disabled-path contract: checking
// Enabled and calling Emit on the nop tracer allocates nothing.
func TestNopTracerNoAllocs(t *testing.T) {
	var tr Tracer = Nop{}
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			tr.Emit(Event{T: 1, Kind: KindDone})
		}
	})
	if allocs != 0 {
		t.Errorf("nop tracer path allocates %.1f objects per call, want 0", allocs)
	}
}

func TestValidate(t *testing.T) {
	ok := []Event{
		{T: 0, Kind: KindRun, Run: &RunInfo{Scheduler: "fifo"}},
		{T: 1, Kind: KindEnqueue, Task: &TaskInfo{Node: -1, Store: -1}},
		{T: 2, Kind: KindDone, Task: &TaskInfo{Node: 3, Store: 0}},
		{T: 3, Kind: KindEpoch, Epoch: &EpochInfo{Scheduler: "lips", Epoch: 1}},
		{T: 4, Kind: KindMove, Move: &MoveInfo{Src: 0, Dst: 1}},
		{T: 5, Kind: KindFault, Fault: &FaultInfo{Kind: "node-down", Node: 2, Store: -1}},
		{T: 6, Kind: KindSample, Sample: &SampleInfo{}},
	}
	for _, e := range ok {
		if err := Validate(e); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", e.Kind, err)
		}
	}
	bad := []Event{
		{T: -1, Kind: KindSample, Sample: &SampleInfo{}},                                      // negative time
		{T: 1, Kind: Kind("bogus")},                                                           // unknown kind
		{T: 1, Kind: KindRun},                                                                 // missing payload
		{T: 1, Kind: KindRun, Run: &RunInfo{}},                                                // missing scheduler
		{T: 1, Kind: KindDone},                                                                // missing task
		{T: 1, Kind: KindDone, Task: &TaskInfo{Node: -2}},                                     // invalid node id
		{T: 1, Kind: KindDone, Task: &TaskInfo{Job: -1}},                                      // invalid task key
		{T: 1, Kind: KindEpoch, Epoch: &EpochInfo{Scheduler: "lips"}},                         // epoch 0
		{T: 1, Kind: KindEpoch, Epoch: &EpochInfo{Scheduler: "lips", Epoch: 1, Launched: -1}}, // negative launches
		{T: 1, Kind: KindMove, Move: &MoveInfo{Block: -1}},                                    // invalid block
		{T: 1, Kind: KindKill, Task: &TaskInfo{CostUC: -1}},                                   // negative kill charge
		{T: 1, Kind: KindDone, Task: &TaskInfo{CostUC: -1}},                                   // negative done charge
		{T: 1, Kind: KindDone, Task: &TaskInfo{CostUC: 5, XferUC: -1}},                        // negative transfer charge
		{T: 1, Kind: KindMove, Move: &MoveInfo{CostUC: -1}},                                   // negative move charge
		{T: 1, Kind: KindMove, Move: &MoveInfo{MB: -1}},                                       // negative move size
		{T: 1, Kind: KindFault, Fault: &FaultInfo{}},                                          // missing fault kind
		{T: 1, Kind: KindSample, Sample: &SampleInfo{Running: -1}},                            // negative count
		{T: 1, Kind: KindSample, Sample: &SampleInfo{}, Fault: &FaultInfo{}},                  // two payloads
	}
	for _, e := range bad {
		if err := Validate(e); err == nil {
			t.Errorf("Validate(%s %+v) accepted", e.Kind, e)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{T: 0, Kind: KindRun, Run: &RunInfo{Scheduler: "lips", Nodes: 2, Slots: []int{2, 4},
			Types: []string{"a", "b"}, Zones: []string{"z1", "z2"}, Label: "rt"}},
		{T: 1.5, Kind: KindLaunch, Task: &TaskInfo{Job: 1, Task: 2, Node: 0, Store: 1,
			Attempt: 1, Locality: "zone-local"}},
		{T: 9, Kind: KindDone, Task: &TaskInfo{Job: 1, Task: 2, Node: 0, Store: 1,
			Attempt: 1, DurSec: 7.5, XferSec: 0.5, CPUSec: 7, CostUC: 314159}},
		{T: 10, Kind: KindKill, Task: &TaskInfo{Job: 1, Task: 3, Node: -1, Store: -1, Reason: "cancel"}},
		{T: 11, Kind: KindSample, Sample: &SampleInfo{Done: 1, TotalUC: 314159, CPUUC: 314159}},
	}
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Events() != len(events) {
		t.Errorf("Events() = %d, want %d", sink.Events(), len(events))
	}

	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	if *got[2].Task != *events[2].Task || got[2].T != events[2].T {
		t.Errorf("done event round-trip: got %+v want %+v", *got[2].Task, *events[2].Task)
	}
	if !reflect.DeepEqual(*got[4].Sample, *events[4].Sample) {
		t.Errorf("sample round-trip: got %+v", *got[4].Sample)
	}

	// Node/store zero must survive the round trip (no omitempty on ids).
	if got[0].Run.Scheduler != "lips" || got[1].Task.Node != 0 {
		t.Errorf("ids lost in round trip: %+v", got[1].Task)
	}

	// Same events emitted again are byte-identical.
	var buf2 bytes.Buffer
	sink2 := NewJSONL(&buf2)
	for _, e := range events {
		sink2.Emit(e)
	}
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encoding the same events is not byte-identical")
	}
}

func TestReadAllRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"t":1,"kind":"done","task":{"job":0,"task":0,"node":0,"store":0},"bogus":1}`,
		"schema":        `{"t":1,"kind":"done"}`,
		"not json":      `nope`,
	}
	for name, line := range cases {
		if _, err := ReadAll(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: accepted %q", name, line)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %v does not name the line", name, err)
		}
	}
	// Blank lines are fine.
	got, err := ReadAll(strings.NewReader("\n\n{\"t\":1,\"kind\":\"sample\",\"sample\":{\"running\":0,\"queued\":0,\"pending\":0,\"done\":0,\"free_slots\":0,\"live_slots\":0,\"busy_slot_sec\":0,\"total_uc\":0,\"cpu_uc\":0,\"transfer_uc\":0,\"placement_uc\":0,\"speculative_uc\":0,\"fault_uc\":0,\"node_local\":0,\"zone_local\":0,\"remote\":0,\"no_input\":0}}\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("blank-line skip: got %d events, err %v", len(got), err)
	}
}

func TestSamplerCSV(t *testing.T) {
	s := NewSampler()
	s.Emit(Event{T: 0, Kind: KindSample, Sample: &SampleInfo{FreeSlots: 4, LiveSlots: 4}})
	s.Emit(Event{T: 60, Kind: KindDone, Task: &TaskInfo{}}) // ignored
	s.Emit(Event{T: 120, Kind: KindSample, Sample: &SampleInfo{
		Done: 2, FreeSlots: 2, LiveSlots: 4, BusySlotSec: 90,
		TotalUC: 150000000, CPUUC: 100000000, TransferUC: 50000000, NodeLocal: 2}})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != CSVHeader {
		t.Errorf("header = %q", lines[0])
	}
	want := "120,150000000,100000000,50000000,0,0,0,0,0,0,2,2,4,90,2,0,0,0"
	if lines[2] != want {
		t.Errorf("row = %q\nwant  %q", lines[2], want)
	}
}
