package trace

import (
	"fmt"
	"io"
)

// CSVHeader is the column contract of WriteSamplesCSV. Units: simulated
// seconds and exact microcents (the ledger's integer unit, 1e8 per
// dollar) — the same field names and units the live /progress endpoint
// reports (internal/obs.Progress, pinned by TestProgressMatchesSamplerCSV).
const CSVHeader = "t_sec,total_uc,cpu_uc,transfer_uc,placement_uc,speculative_uc,fault_uc," +
	"running,queued,pending,done,free_slots,live_slots,busy_slot_sec," +
	"node_local,zone_local,remote,no_input"

// WriteSamplesCSV writes the periodic time-series snapshots (sample
// events) among events as CSV, in order: CSVHeader, then one row per
// sample, cost columns in exact microcents. Every other kind is skipped.
func WriteSamplesCSV(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	for _, e := range events {
		s := e.Sample
		if e.Kind != KindSample || s == nil {
			continue
		}
		_, err := fmt.Fprintf(w, "%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%d,%d,%d,%d\n",
			e.T, s.TotalUC, s.CPUUC, s.TransferUC,
			s.PlacementUC, s.SpeculativeUC, s.FaultUC,
			s.Running, s.Queued, s.Pending, s.Done,
			s.FreeSlots, s.LiveSlots, s.BusySlotSec,
			s.NodeLocal, s.ZoneLocal, s.Remote, s.NoInput)
		if err != nil {
			return err
		}
	}
	return nil
}
