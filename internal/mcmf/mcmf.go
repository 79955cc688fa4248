// Package mcmf implements min-cost max-flow, the substrate behind
// graph-based cluster schedulers like Quincy (Isard et al., SOSP'09),
// which the paper discusses as the main graph-based alternative to its LP
// formulation. The solver is successive shortest augmenting paths with
// SPFA (Bellman–Ford queue) path finding, which tolerates the negative
// arc costs that appear in scheduling networks.
package mcmf

import "fmt"

// EdgeID identifies an edge for flow queries.
type EdgeID int

// edge is stored twice: the forward arc and its residual reverse arc at
// negated cost.
type edge struct {
	to   int
	cap  int64
	cost int64
	flow int64
}

// Graph is a flow network under construction. Nodes are dense integers
// [0, n).
type Graph struct {
	n     int
	edges []edge // even index: forward, odd: its reverse
	adj   [][]int
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// AddEdge adds a directed edge u→v with the given capacity and per-unit
// cost, returning its id.
func (g *Graph) AddEdge(u, v int, cap, cost int64) EdgeID {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("mcmf: edge %d→%d outside graph of %d nodes", u, v, g.n))
	}
	if cap < 0 {
		panic(fmt.Sprintf("mcmf: negative capacity %d", cap))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, edge{to: v, cap: cap, cost: cost})
	g.adj[u] = append(g.adj[u], int(id))
	g.edges = append(g.edges, edge{to: u, cap: 0, cost: -cost})
	g.adj[v] = append(g.adj[v], int(id)+1)
	return id
}

// EdgeFlow returns the flow pushed through a forward edge.
func (g *Graph) EdgeFlow(id EdgeID) int64 { return g.edges[id].flow }

const inf = int64(1) << 62

// Flow pushes up to maxFlow units from s to t along successively cheapest
// augmenting paths and returns the total flow and its cost. Pass a huge
// maxFlow for a plain min-cost max-flow. Costs may be negative as long as
// the graph has no negative-cost cycle reachable with residual capacity.
func (g *Graph) Flow(s, t int, maxFlow int64) (flow, cost int64) {
	if s == t {
		return 0, 0
	}
	dist := make([]int64, g.n)
	inQueue := make([]bool, g.n)
	prevEdge := make([]int, g.n)
	for flow < maxFlow {
		// SPFA from s.
		for i := range dist {
			dist[i] = inf
			prevEdge[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		inQueue[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			inQueue[u] = false
			for _, ei := range g.adj[u] {
				e := &g.edges[ei]
				if e.cap-e.flow <= 0 {
					continue
				}
				if nd := dist[u] + e.cost; nd < dist[e.to] {
					dist[e.to] = nd
					prevEdge[e.to] = ei
					if !inQueue[e.to] {
						queue = append(queue, e.to)
						inQueue[e.to] = true
					}
				}
			}
		}
		if dist[t] >= inf {
			break // no augmenting path left
		}
		// Bottleneck along the path.
		push := maxFlow - flow
		for v := t; v != s; {
			e := &g.edges[prevEdge[v]]
			if r := e.cap - e.flow; r < push {
				push = r
			}
			v = g.edges[prevEdge[v]^1].to
		}
		for v := t; v != s; {
			ei := prevEdge[v]
			g.edges[ei].flow += push
			g.edges[ei^1].flow -= push
			v = g.edges[ei^1].to
		}
		flow += push
		cost += push * dist[t]
	}
	return flow, cost
}
