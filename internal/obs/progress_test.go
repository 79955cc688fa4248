package obs

import (
	"reflect"
	"strings"
	"testing"

	"lips/internal/cost"
	"lips/internal/trace"
)

// TestProgressMatchesSamplerCSV pins the field-name and unit agreement
// between the /progress JSON snapshot and the trace samples' CSV export:
// the first len(CSVHeader) json tags of Progress must be exactly the CSV
// columns, in order. A divergence means a dashboard reading one would
// misread the other.
func TestProgressMatchesSamplerCSV(t *testing.T) {
	cols := strings.Split(trace.CSVHeader, ",")
	typ := reflect.TypeOf(Progress{})
	if typ.NumField() < len(cols) {
		t.Fatalf("Progress has %d fields, CSV has %d columns", typ.NumField(), len(cols))
	}
	for i, col := range cols {
		if tag := typ.Field(i).Tag.Get("json"); tag != col {
			t.Errorf("Progress field %d json tag = %q, want CSV column %q", i, tag, col)
		}
	}
}

func TestSnapshotReadsRegistry(t *testing.T) {
	reg := NewRegistry()
	m := RegisterSim(reg)
	m.Sample(120, &trace.SampleInfo{Running: 4, FreeSlots: 2, LiveSlots: 8, BusySlotSec: 90})
	m.Charge("alice", cost.CatCPU, 1e8)
	m.Charge("", cost.CatTransfer, 5e7)
	for i := 0; i < 6; i++ {
		m.Launch("node-local")
	}
	m.Fault("node-down")
	RegisterSched(reg).ObserveEpoch(&trace.EpochInfo{Epoch: 2, Deferred: 5})

	p := Snapshot(reg)
	want := Progress{
		TSec: 120, TotalUC: 150000000, CPUUC: 100000000, TransferUC: 50000000,
		Running: 4, FreeSlots: 2, LiveSlots: 8, BusySlotSec: 90,
		NodeLocal: 6, Epoch: 2, DeferredTasks: 5, FaultsInjected: 1,
	}
	if p != want {
		t.Errorf("Snapshot = %+v, want %+v", p, want)
	}
}

func TestSnapshotEmptyRegistry(t *testing.T) {
	if p := Snapshot(NewRegistry()); p != (Progress{}) {
		t.Errorf("empty registry snapshot = %+v, want zero", p)
	}
}
