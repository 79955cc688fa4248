package trace

import (
	"fmt"
	"io"
)

// Sampler collects the periodic time-series snapshots (sample events)
// into memory, ignoring every other kind. It backs programmatic access
// to cost-over-time / queue-depth / utilization series and CSV export
// (cmd/lips-trace's cost-over-time output uses the same writer).
type Sampler struct {
	Rows []SampleRow
}

// SampleRow is one snapshot with its simulated timestamp.
type SampleRow struct {
	T float64
	S SampleInfo
}

// NewSampler returns an empty sampler sink.
func NewSampler() *Sampler { return &Sampler{} }

// Emit implements Tracer, keeping sample events only.
func (s *Sampler) Emit(e Event) {
	if e.Kind == KindSample && e.Sample != nil {
		s.Rows = append(s.Rows, SampleRow{T: e.T, S: *e.Sample})
	}
}

// CSVHeader is the column contract of WriteCSV. Units: simulated seconds
// and exact microcents (the ledger's integer unit, 1e8 per dollar) — the
// same field names and units the live /progress endpoint reports
// (internal/obs.Progress, pinned by TestProgressMatchesSamplerCSV).
const CSVHeader = "t_sec,total_uc,cpu_uc,transfer_uc,placement_uc,speculative_uc,fault_uc," +
	"running,queued,pending,done,free_slots,live_slots,busy_slot_sec," +
	"node_local,zone_local,remote,no_input"

// WriteCSV renders the collected series as CSV: one row per sample, cost
// columns in exact microcents.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	for _, r := range s.Rows {
		_, err := fmt.Fprintf(w, "%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%d,%d,%d,%d\n",
			r.T, r.S.TotalUC, r.S.CPUUC, r.S.TransferUC,
			r.S.PlacementUC, r.S.SpeculativeUC, r.S.FaultUC,
			r.S.Running, r.S.Queued, r.S.Pending, r.S.Done,
			r.S.FreeSlots, r.S.LiveSlots, r.S.BusySlotSec,
			r.S.NodeLocal, r.S.ZoneLocal, r.S.Remote, r.S.NoInput)
		if err != nil {
			return err
		}
	}
	return nil
}
