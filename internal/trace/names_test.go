package trace

import (
	"slices"
	"testing"

	"lips/internal/cost"
)

// TestReasonsArePriced holds the money table: every kill and move reason
// has a non-empty wire name no other reason of its kind shares, bills one
// of the ledger's five categories, and parses back to itself.
func TestReasonsArePriced(t *testing.T) {
	type row struct {
		name   string
		cat    cost.Category
		parsed bool
	}
	check := func(kind string, rows []row) {
		seen := map[string]bool{}
		for i, r := range rows {
			if r.name == "" || seen[r.name] {
				t.Errorf("%s reason %d: name %q is empty or taken", kind, i, r.name)
			}
			seen[r.name] = true
			if !slices.Contains(cost.Categories[:], r.cat) {
				t.Errorf("%s reason %q bills %q, not one of the five categories", kind, r.name, r.cat)
			}
			if !r.parsed {
				t.Errorf("%s reason %q does not parse back to itself", kind, r.name)
			}
		}
	}
	var kills, moves []row
	for r := range NumKillReasons {
		back, ok := ParseKillReason(r.String())
		kills = append(kills, row{r.String(), r.Category(), ok && back == r})
	}
	for r := range NumMoveReasons {
		back, ok := ParseMoveReason(r.String())
		moves = append(moves, row{r.String(), r.Category(), ok && back == r})
	}
	check("kill", kills)
	check("move", moves)
	for _, name := range []string{"", "Timeout", "balance "} {
		if _, ok := ParseKillReason(name); ok {
			t.Errorf("ParseKillReason(%q) accepted a name outside the table", name)
		}
		if _, ok := ParseMoveReason(name); ok {
			t.Errorf("ParseMoveReason(%q) accepted a name outside the table", name)
		}
	}
}

// TestNameTablesUnique holds the locality, task-state and fault-kind
// tables to one non-empty name per position.
func TestNameTablesUnique(t *testing.T) {
	for kind, names := range map[string][]string{
		"locality": Localities[:], "task state": TaskStates[:], "fault kind": FaultKinds[:],
	} {
		seen := map[string]bool{}
		for i, n := range names {
			if n == "" || seen[n] {
				t.Errorf("%s %d: name %q is empty or taken", kind, i, n)
			}
			seen[n] = true
		}
	}
}
