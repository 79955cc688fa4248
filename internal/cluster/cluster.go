// Package cluster models the computation substrate LiPS schedules onto:
// nodes (Hadoop TaskTrackers) with heterogeneous CPU capacity and prices,
// data stores (HDFS DataNodes) with capacities, availability zones, the
// pairwise bandwidth model, and the paper's transfer-cost matrices MS
// (machine↔store) and SS (store↔store).
package cluster

import (
	"fmt"

	"lips/internal/cost"
)

// NodeID identifies a computation node within a Cluster.
type NodeID int

// StoreID identifies a data store within a Cluster.
type StoreID int

// None marks a missing node/store cross-reference.
const None = -1

// Node is one computation node (a Hadoop TaskTracker).
type Node struct {
	ID        NodeID
	Name      string
	Zone      string     // availability zone
	Type      string     // instance type name (catalog key or synthetic)
	ECU       float64    // TP(M): compute throughput in EC2 compute units
	Slots     int        // concurrent task slots
	PerECUSec cost.Money // CPU_Cost(M): dollar cost per ECU-second
	Store     StoreID    // co-located data store, or None
}

// Store is one data store (a Hadoop DataNode or remote store).
type Store struct {
	ID         StoreID
	Name       string
	Zone       string
	Node       NodeID // co-located computation node, or None (e.g. S3)
	CapacityMB float64
}

// Bandwidths is the pairwise network model. The paper modulated EC2
// networking to 500 Mbit/s within a zone and 250 Mbit/s across zones; a
// co-located store is read at local disk speed.
type Bandwidths struct {
	LocalMBps     float64 // same-node store→machine
	IntraZoneMBps float64
	InterZoneMBps float64
}

// DefaultBandwidths mirrors the paper's testbed: 500/250 Mbit/s converted
// to MB/s, with 100 MB/s local disk.
func DefaultBandwidths() Bandwidths {
	return Bandwidths{LocalMBps: 100, IntraZoneMBps: 500.0 / 8, InterZoneMBps: 250.0 / 8}
}

// Cluster is an immutable description of the substrate. Build one with a
// Builder or one of the preset constructors, then share it freely.
type Cluster struct {
	Nodes  []Node
	Stores []Store
	Zones  []string

	BW       Bandwidths
	Transfer cost.TransferPricing

	// ZonePairPerGB, when non-nil, overrides Transfer with an explicit
	// per-zone-pair price (used by the Fig. 5 random clusters, whose
	// transfer costs are drawn uniformly per pair).
	ZonePairPerGB map[[2]string]cost.Money
}

// Validate checks internal consistency of the cross-references.
func (c *Cluster) Validate() error {
	zones := make(map[string]bool, len(c.Zones))
	for _, z := range c.Zones {
		zones[z] = true
	}
	for i, n := range c.Nodes {
		if n.ID != NodeID(i) {
			return fmt.Errorf("cluster: node %d has ID %d", i, n.ID)
		}
		if !zones[n.Zone] {
			return fmt.Errorf("cluster: node %s in unknown zone %q", n.Name, n.Zone)
		}
		if n.ECU <= 0 || n.Slots <= 0 {
			return fmt.Errorf("cluster: node %s has ECU %g, slots %d", n.Name, n.ECU, n.Slots)
		}
		if n.PerECUSec < 0 {
			return fmt.Errorf("cluster: node %s has negative CPU price", n.Name)
		}
		if n.Store != None {
			if int(n.Store) >= len(c.Stores) {
				return fmt.Errorf("cluster: node %s references store %d", n.Name, n.Store)
			}
			if c.Stores[n.Store].Node != n.ID {
				return fmt.Errorf("cluster: node %s and store %d disagree on co-location", n.Name, n.Store)
			}
		}
	}
	for i, s := range c.Stores {
		if s.ID != StoreID(i) {
			return fmt.Errorf("cluster: store %d has ID %d", i, s.ID)
		}
		if !zones[s.Zone] {
			return fmt.Errorf("cluster: store %s in unknown zone %q", s.Name, s.Zone)
		}
		if s.CapacityMB <= 0 {
			return fmt.Errorf("cluster: store %s has capacity %g", s.Name, s.CapacityMB)
		}
		if s.Node != None && c.Nodes[s.Node].Store != s.ID {
			return fmt.Errorf("cluster: store %s and node %d disagree on co-location", s.Name, s.Node)
		}
	}
	return nil
}

// ZonePerGB resolves the per-GB transfer price between two zones: the
// ZonePairPerGB entry when there is one, else Transfer's.
func (c *Cluster) ZonePerGB(a, b string) cost.Money {
	if c.ZonePairPerGB != nil {
		if a > b {
			a, b = b, a
		}
		if p, ok := c.ZonePairPerGB[[2]string{a, b}]; ok {
			return p
		}
	}
	return c.Transfer.PerGB(a, b)
}

// MSPerGB is the paper's MS matrix entry: the per-GB cost of moving data
// between store s and machine n at task run time. Reading a co-located
// store is free.
func (c *Cluster) MSPerGB(n NodeID, s StoreID) cost.Money {
	if c.Nodes[n].Store == s {
		return 0
	}
	return c.ZonePerGB(c.Nodes[n].Zone, c.Stores[s].Zone)
}

// SSPerGB is the paper's SS matrix entry: the per-GB cost of relocating
// data from store a to store b.
func (c *Cluster) SSPerGB(a, b StoreID) cost.Money {
	if a == b {
		return 0
	}
	return c.ZonePerGB(c.Stores[a].Zone, c.Stores[b].Zone)
}

// BandwidthStoreNode returns the MB/s available for moving data from store
// s to machine n (the paper's B matrix).
func (c *Cluster) BandwidthStoreNode(s StoreID, n NodeID) float64 {
	if c.Nodes[n].Store == s {
		return c.BW.LocalMBps
	}
	return c.ZoneMBps(c.Stores[s].Zone, c.Nodes[n].Zone)
}

// BandwidthStoreStore returns the MB/s available between two stores.
func (c *Cluster) BandwidthStoreStore(a, b StoreID) float64 {
	if a == b {
		return c.BW.LocalMBps
	}
	return c.ZoneMBps(c.Stores[a].Zone, c.Stores[b].Zone)
}

// ZoneMBps returns the MB/s available between two zones for a read that
// is not local: the intra-zone bandwidth within one, else inter-zone.
func (c *Cluster) ZoneMBps(a, b string) float64 {
	if a == b {
		return c.BW.IntraZoneMBps
	}
	return c.BW.InterZoneMBps
}

// TotalECU sums the compute capacity of all nodes.
func (c *Cluster) TotalECU() float64 {
	total := 0.0
	for _, n := range c.Nodes {
		total += n.ECU
	}
	return total
}

// StoreIDs returns every store's ID in ascending order — the pool
// placement shufflers and fault planners draw from.
func (c *Cluster) StoreIDs() []StoreID {
	out := make([]StoreID, len(c.Stores))
	for i := range out {
		out[i] = StoreID(i)
	}
	return out
}
