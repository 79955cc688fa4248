package sched

import (
	"sort"

	"lips/internal/cluster"
	"lips/internal/mcmf"
	"lips/internal/sim"
)

// Quincy is a graph-based scheduler in the style of Quincy (Isard et al.,
// SOSP'09), the main graph-based alternative the paper discusses: each
// scheduling round maps the assignment problem onto a min-cost flow
// network whose edge costs encode data-locality penalties, and the flow
// optimum becomes the task placement.
//
// This implementation batches rounds every quincyBatchSec and works at
// job granularity: one network node per job, per cluster node, plus an
// unscheduled sink, with per-task locality costs (node-local, zone-local,
// remote). Quincy's fairness layer and preemption are not modelled; like
// the original, it optimizes placement cost, not dollars — which is
// exactly the contrast with LiPS the comparison experiments expose.
type Quincy struct {
	sim.NopNodeEvents

	// Rounds counts flow solves (readable after a run).
	Rounds int
}

// Per-task locality costs (arbitrary units, roughly Quincy's data-volume
// proxies) and the round period. Leaving a task pending a round must cost
// more than running it remotely, or nothing remote ever schedules.
const (
	nodeLocalCost  = 0
	zoneLocalCost  = 10
	remoteCost     = 25
	unschedCost    = 100
	quincyBatchSec = 5
)

// NewQuincy returns a Quincy-like scheduler.
func NewQuincy() *Quincy { return &Quincy{} }

// Name implements sim.Scheduler.
func (q *Quincy) Name() string { return "quincy-like" }

// Init implements sim.Scheduler.
func (q *Quincy) Init(s *sim.Sim) {
	s.At(0, func() { q.round(s) })
}

// OnJobArrival implements sim.Scheduler (rounds are periodic).
func (q *Quincy) OnJobArrival(*sim.Sim, int) {}

// OnSlotFree implements sim.Scheduler (rounds are periodic).
func (q *Quincy) OnSlotFree(*sim.Sim, cluster.NodeID) {}

// OnTaskDone implements sim.Scheduler.
func (q *Quincy) OnTaskDone(*sim.Sim, int, int) {}

// round solves one flow network and launches the resulting assignment.
func (q *Quincy) round(s *sim.Sim) {
	if s.Drained() {
		return
	}
	defer s.At(s.Now()+quincyBatchSec, func() { q.round(s) })

	jobs := s.ArrivedJobs()
	type jobInfo struct {
		job     int
		pending []int
	}
	var active []jobInfo
	for _, j := range jobs {
		if p := s.PendingTasks(j); len(p) > 0 {
			active = append(active, jobInfo{job: j, pending: p})
		}
	}
	if len(active) == 0 {
		return
	}
	var freeNodes []cluster.NodeID
	for n := range s.C.Nodes {
		if s.FreeSlots(cluster.NodeID(n)) > 0 {
			freeNodes = append(freeNodes, cluster.NodeID(n))
		}
	}
	if len(freeNodes) == 0 {
		return
	}
	q.Rounds++

	// Network layout: [source][jobs...][nodes...][sink].
	nj, nn := len(active), len(freeNodes)
	src := 0
	jobBase := 1
	nodeBase := 1 + nj
	sink := 1 + nj + nn
	g := mcmf.New(sink + 1)

	totalPending := int64(0)
	type jnEdge struct {
		id       mcmf.EdgeID
		job, nIx int
	}
	var jnEdges []jnEdge
	for ji, info := range active {
		pend := int64(len(info.pending))
		totalPending += pend
		g.AddEdge(src, jobBase+ji, pend, 0)
		// Leaving tasks unscheduled this round is allowed but costly.
		g.AddEdge(jobBase+ji, sink, pend, unschedCost)
		for ni, n := range freeNodes {
			costPer := q.taskCost(s, info.job, info.pending, n)
			id := g.AddEdge(jobBase+ji, nodeBase+ni, int64(s.FreeSlots(n)), costPer)
			jnEdges = append(jnEdges, jnEdge{id: id, job: info.job, nIx: ni})
		}
	}
	for ni, n := range freeNodes {
		g.AddEdge(nodeBase+ni, sink, int64(s.FreeSlots(n)), 0)
	}
	g.Flow(src, sink, totalPending)

	// Launch the flow: for each (job, node) edge, start that many tasks,
	// best-locality pending tasks first.
	for _, e := range jnEdges {
		count := g.EdgeFlow(e.id)
		if count <= 0 {
			continue
		}
		n := freeNodes[e.nIx]
		pending := s.PendingTasks(e.job)
		if s.W.Jobs[e.job].HasInput() {
			sort.Slice(pending, func(a, b int) bool {
				_, ra := s.BestReplicaRank(e.job, pending[a], n)
				_, rb := s.BestReplicaRank(e.job, pending[b], n)
				return ra < rb
			})
		}
		for i := int64(0); i < count && int(i) < len(pending); i++ {
			t := pending[i]
			store := sim.NoStore
			if s.W.Jobs[e.job].HasInput() {
				store = s.BestReplica(e.job, t, n)
			}
			if err := s.Launch(e.job, t, n, store); err != nil {
				break // slot taken by an earlier edge; flow caps make this rare
			}
		}
	}
}

// taskCost is the per-task locality cost of running job j's work on node
// n: the best rank among the job's pending blocks on that node.
func (q *Quincy) taskCost(s *sim.Sim, j int, pending []int, n cluster.NodeID) int64 {
	if !s.W.Jobs[j].HasInput() {
		return nodeLocalCost
	}
	best := 3
	for _, t := range pending {
		if _, rank := s.BestReplicaRank(j, t, n); rank < best {
			best = rank
			if best == 0 {
				break
			}
		}
	}
	switch best {
	case 0:
		return nodeLocalCost
	case 1:
		return zoneLocalCost
	default:
		return remoteCost
	}
}
