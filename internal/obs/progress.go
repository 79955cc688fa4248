package obs

import (
	"lips/internal/cost"
	"lips/internal/trace"
)

// Progress is the /progress JSON snapshot of a live run. Its first
// eighteen fields carry exactly the names and units of the trace
// samples' CSV columns (trace.CSVHeader: simulated seconds, exact
// microcents) — pinned by TestProgressMatchesSamplerCSV — followed by
// scheduler- and fault-level extras the CSV does not carry. Cost and
// locality fields read the exact live counters; the state gauges (tasks,
// slots, clock) lag by at most one gauge-refresh interval.
type Progress struct {
	TSec          float64 `json:"t_sec"`
	TotalUC       int64   `json:"total_uc"`
	CPUUC         int64   `json:"cpu_uc"`
	TransferUC    int64   `json:"transfer_uc"`
	PlacementUC   int64   `json:"placement_uc"`
	SpeculativeUC int64   `json:"speculative_uc"`
	FaultUC       int64   `json:"fault_uc"`
	Running       int64   `json:"running"`
	Queued        int64   `json:"queued"`
	Pending       int64   `json:"pending"`
	Done          int64   `json:"done"`
	FreeSlots     int64   `json:"free_slots"`
	LiveSlots     int64   `json:"live_slots"`
	BusySlotSec   float64 `json:"busy_slot_sec"`
	NodeLocal     int64   `json:"node_local"`
	ZoneLocal     int64   `json:"zone_local"`
	Remote        int64   `json:"remote"`
	NoInput       int64   `json:"no_input"`

	Epoch          int64 `json:"epoch"`
	DeferredTasks  int64 `json:"deferred_tasks"`
	FaultsInjected int64 `json:"faults_injected"`
}

// Snapshot assembles a Progress from the registry's current values.
// Families a run never registered (e.g. scheduler metrics under FIFO)
// read as zero.
func Snapshot(r *Registry) Progress {
	num := func(name string, label ...string) float64 {
		v, _ := r.Value(name, label...)
		return v
	}
	cnt := func(name string, label ...string) int64 {
		return int64(num(name, label...) + 0.5)
	}
	// trace.TaskStates and trace.Localities are in sim.TaskState and
	// sim.Locality order.
	return Progress{
		TSec:          num(MSimClockSeconds),
		TotalUC:       int64(r.Sum(MSimCost) + 0.5),
		CPUUC:         cnt(MSimCost, string(cost.CatCPU)),
		TransferUC:    cnt(MSimCost, string(cost.CatTransfer)),
		PlacementUC:   cnt(MSimCost, string(cost.CatPlacement)),
		SpeculativeUC: cnt(MSimCost, string(cost.CatSpeculative)),
		FaultUC:       cnt(MSimCost, string(cost.CatFault)),
		Running:       cnt(MSimTasks, trace.TaskStates[2]),
		Queued:        cnt(MSimTasks, trace.TaskStates[1]),
		Pending:       cnt(MSimTasks, trace.TaskStates[0]),
		Done:          cnt(MSimTasks, trace.TaskStates[3]),
		FreeSlots:     cnt(MSimFreeSlots),
		LiveSlots:     cnt(MSimLiveSlots),
		BusySlotSec:   num(MSimBusySlotSeconds),
		NodeLocal:     cnt(MSimLaunched, trace.Localities[0]),
		ZoneLocal:     cnt(MSimLaunched, trace.Localities[1]),
		Remote:        cnt(MSimLaunched, trace.Localities[2]),
		NoInput:       cnt(MSimLaunched, trace.Localities[3]),

		Epoch:          cnt(MSchedEpochNumber),
		DeferredTasks:  cnt(MSchedDeferred),
		FaultsInjected: int64(r.Sum(MSimFaults) + 0.5),
	}
}
