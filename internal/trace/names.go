package trace

import "lips/internal/cost"

// The label vocabularies, each declared here and nowhere else: every name
// the simulator writes into an event or a metric label, and every name a
// reader parses back. sim's Locality, TaskState and FaultKind values and
// the reason constants below index them; obs registers each family's
// children in their order.
var (
	// Localities names sim.Locality's levels, best first.
	Localities = [...]string{"node-local", "zone-local", "remote", "no-input"}
	// TaskStates names sim.TaskState's lifecycle.
	TaskStates = [...]string{"pending", "queued", "running", "done"}
	// FaultKinds names sim.FaultKind's kinds.
	FaultKinds = [...]string{"node-down", "node-up", "store-loss", "slowdown"}
)

// KillReason says why an attempt ended without completing.
type KillReason uint8

// Kill reasons.
const (
	KillTimeout     KillReason = iota // Hadoop's progress timeout on the input read
	KillSpeculative                   // the losing twin of a speculative pair
	KillNodeCrash                     // the attempt's node crashed
	KillStoreLoss                     // the store the attempt read from lost its data
	KillCancel                        // the attempt's job was cancelled
	NumKillReasons
)

// MoveReason says why a block was relocated between stores.
type MoveReason uint8

// Move reasons.
const (
	MovePlan          MoveReason = iota // an epoch plan's relocation
	MoveReReplicate                     // a fresh copy of a block a store loss left under-replicated
	MoveReMaterialize                   // a block a store loss took the only copy of, recreated
	MoveBalance                         // the HDFS balancer's, before a run (lips-sim -balance, lips-balance)
	NumMoveReasons
)

// reason is a row of the money table: a wire name and its bill's category.
type reason struct {
	name string
	cat  cost.Category
}

// The money table: under which category a kill's or a move's bill is
// booked (Charges says the rest). The simulator books by it, and
// obs.TraceSink and lips-trace -audit/-by-job read by it, so none can
// disagree with another.
var (
	kills = [NumKillReasons]reason{
		KillTimeout:     {"timeout", cost.CatTransfer}, // the partial input read
		KillSpeculative: {"speculative", cost.CatSpeculative},
		KillNodeCrash:   {"node-crash", cost.CatFault},
		KillStoreLoss:   {"store-loss", cost.CatFault},
		KillCancel:      {"cancel", cost.CatSpeculative},
	}
	moves = [NumMoveReasons]reason{
		MovePlan:          {"plan", cost.CatPlacement},
		MoveReReplicate:   {"re-replicate", cost.CatFault},
		MoveReMaterialize: {"re-materialize", cost.CatFault},
		MoveBalance:       {"balance", cost.CatPlacement},
	}
)

// String returns the reason's wire name.
func (r KillReason) String() string { return kills[r].name }

// Category returns the ledger category a kill of this reason bills.
func (r KillReason) Category() cost.Category { return kills[r].cat }

// String returns the reason's wire name.
func (r MoveReason) String() string { return moves[r].name }

// Category returns the ledger category a move of this reason bills.
func (r MoveReason) Category() cost.Category { return moves[r].cat }

// ParseKillReason returns the kill reason named name; ok is false for a
// name outside the table.
func ParseKillReason(name string) (r KillReason, ok bool) { return parse[KillReason](kills[:], name) }

// ParseMoveReason returns the move reason named name; ok is false for a
// name outside the table.
func ParseMoveReason(name string) (r MoveReason, ok bool) { return parse[MoveReason](moves[:], name) }

func parse[R ~uint8](table []reason, name string) (R, bool) {
	for i, row := range table {
		if row.name == name {
			return R(i), true
		}
	}
	return 0, false
}
