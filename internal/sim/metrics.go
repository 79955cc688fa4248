package sim

import (
	"math"

	"lips/internal/trace"
)

// The run's tallies beyond the ledger's dollars: data locality, per-node
// accumulated CPU time (Fig. 11), slot utilization and Jain's fairness
// index. The simulator alone writes them, into Sim and Result.

// Locality classifies where a task read its input from.
type Locality int

// Locality levels, best first, in trace.Localities order.
const (
	NodeLocal Locality = iota // co-located store
	ZoneLocal                 // same availability zone
	Remote                    // cross-zone
	NoInput                   // the task read nothing (Pi)
)

// String names the locality level (trace.Localities).
func (l Locality) String() string {
	if l < 0 || int(l) >= len(trace.Localities) {
		return "unknown"
	}
	return trace.Localities[l]
}

// JainIndex computes Jain's fairness index over nonnegative allocations:
// (Σx)² / (n·Σx²). It is 1 for perfectly equal shares and 1/n for a
// single-winner allocation. Empty or all-zero inputs yield 1.
func JainIndex(shares []float64) float64 {
	if len(shares) == 0 {
		return 1
	}
	sum, sumSq := 0.0, 0.0
	for _, x := range shares {
		if x < 0 {
			x = 0
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(shares)) * sumSq)
}

// LocalityCounter tallies task locality.
type LocalityCounter struct {
	counts [4]int
}

// Observe records one task's locality.
func (lc *LocalityCounter) Observe(l Locality) { lc.counts[l]++ }

// Count returns the tally for one level.
func (lc *LocalityCounter) Count(l Locality) int { return lc.counts[l] }

// Total returns the number of observed tasks.
func (lc *LocalityCounter) Total() int {
	t := 0
	for _, c := range lc.counts {
		t += c
	}
	return t
}

// LocalFraction returns the fraction of input-reading tasks that were
// node-local (the delay-scheduling literature's "data locality" metric).
func (lc *LocalityCounter) LocalFraction() float64 {
	withInput := lc.Total() - lc.counts[NoInput]
	if withInput == 0 {
		return 1
	}
	return float64(lc.counts[NodeLocal]) / float64(withInput)
}

// NodeCPU tracks accumulated ECU-seconds per node (Fig. 11's breakdown),
// in slices indexed by node id.
type NodeCPU struct {
	secs []float64
	seen []bool // accrued at least once, zero included
}

// NewNodeCPU returns an empty tracker for node ids below nodes.
func NewNodeCPU(nodes int) *NodeCPU {
	return &NodeCPU{secs: make([]float64, nodes), seen: make([]bool, nodes)}
}

// Add accrues ECU-seconds to a node.
func (nc *NodeCPU) Add(node int, ecuSec float64) {
	nc.secs[node] += ecuSec
	nc.seen[node] = true
}

// Of returns the accumulated ECU-seconds of one node.
func (nc *NodeCPU) Of(node int) float64 { return nc.secs[node] }

// Nodes returns the node ids seen, sorted.
func (nc *NodeCPU) Nodes() []int {
	out := []int{}
	for n, seen := range nc.seen {
		if seen {
			out = append(out, n)
		}
	}
	return out
}

// ActiveNodes returns how many nodes accumulated more than threshold
// ECU-seconds — the Fig. 11 parallelism measure.
func (nc *NodeCPU) ActiveNodes(threshold float64) int {
	n := 0
	for i, seen := range nc.seen {
		if seen && nc.secs[i] > threshold {
			n++
		}
	}
	return n
}

// Utilization is busy slot-time over available slot-time.
func Utilization(busySlotSec, totalSlots, horizonSec float64) float64 {
	if totalSlots <= 0 || horizonSec <= 0 {
		return 0
	}
	u := busySlotSec / (totalSlots * horizonSec)
	return math.Min(1, u)
}
