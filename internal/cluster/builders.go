package cluster

import (
	"fmt"
	"math/rand"

	"lips/internal/cost"
)

// The paper's three us-east availability zones.
var PaperZones = []string{"us-east-1a", "us-east-1b", "us-east-1c"}

// Builder assembles a Cluster incrementally.
type Builder struct {
	c Cluster
}

// NewBuilder returns a builder with the given zones and default bandwidth
// and transfer pricing.
func NewBuilder(zones ...string) *Builder {
	return &Builder{c: Cluster{
		Zones:    append([]string(nil), zones...),
		BW:       DefaultBandwidths(),
		Transfer: cost.DefaultTransferPricing(),
	}}
}

// SetBandwidths overrides the bandwidth model.
func (b *Builder) SetBandwidths(bw Bandwidths) *Builder {
	b.c.BW = bw
	return b
}

// SetZonePairPerGB installs an explicit per-zone-pair transfer price
// (order-insensitive).
func (b *Builder) SetZonePairPerGB(a, z string, price cost.Money) *Builder {
	if b.c.ZonePairPerGB == nil {
		b.c.ZonePairPerGB = make(map[[2]string]cost.Money)
	}
	if a > z {
		a, z = z, a
	}
	b.c.ZonePairPerGB[[2]string{a, z}] = price
	return b
}

// AddNode adds a node with a co-located store of capacityMB and returns
// its ID.
func (b *Builder) AddNode(zone, typ string, ecu float64, slots int, perECUSec cost.Money, capacityMB float64) NodeID {
	nid := NodeID(len(b.c.Nodes))
	sid := StoreID(len(b.c.Stores))
	b.c.Nodes = append(b.c.Nodes, Node{
		ID: nid, Name: fmt.Sprintf("node-%d", nid), Zone: zone, Type: typ,
		ECU: ecu, Slots: slots, PerECUSec: perECUSec, Store: sid,
	})
	b.c.Stores = append(b.c.Stores, Store{
		ID: sid, Name: fmt.Sprintf("store-%d", sid), Zone: zone, Node: nid, CapacityMB: capacityMB,
	})
	return nid
}

// AddInstance adds a node of a catalog instance type using its midpoint
// ECU-second price and its instance storage as the store capacity. Slot
// count follows Hadoop 0.20's default of two map slots per TaskTracker
// regardless of core count, as the paper's testbed would have had.
func (b *Builder) AddInstance(zone string, t cost.InstanceType) NodeID {
	return b.AddNode(zone, t.Name, t.ECU, 2, t.PerECUMid(), t.StorageGB*1024)
}

// Build validates and returns the cluster. It panics on an invalid
// topology, since that is a programming error in the builder's caller.
func (b *Builder) Build() *Cluster {
	c := b.c
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return &c
}

// Paper20 builds the paper's 20-node testbed (§VI-B "node diversity"):
// nodes spread round-robin over the three zones, a fraction fracC1 of them
// c1.medium and the rest m1.medium. fracC1 of 0, 0.25 and 0.5 correspond
// to the three settings of Fig. 6.
func Paper20(fracC1 float64) *Cluster {
	return paperMix(20, fracC1)
}

// paperMix builds n nodes with the last ceil(fracC1·n) of them c1.medium.
func paperMix(n int, fracC1 float64) *Cluster {
	if fracC1 < 0 || fracC1 > 1 {
		panic(fmt.Sprintf("cluster: fracC1 %g out of range", fracC1))
	}
	b := NewBuilder(PaperZones...)
	numC1 := int(fracC1*float64(n) + 0.5)
	for i := 0; i < n; i++ {
		zone := PaperZones[i%len(PaperZones)]
		if i >= n-numC1 {
			b.AddInstance(zone, cost.C1Medium)
		} else {
			b.AddInstance(zone, cost.M1Medium)
		}
	}
	return b.Build()
}

// Paper100 builds the paper's 100-node validation testbed: three instance
// types (m1.small, m1.medium, c1.medium) in roughly equal numbers across
// the three zones.
func Paper100() *Cluster {
	b := NewBuilder(PaperZones...)
	types := []cost.InstanceType{cost.M1Small, cost.M1Medium, cost.C1Medium}
	for i := 0; i < 100; i++ {
		zone := PaperZones[i%len(PaperZones)]
		b.AddInstance(zone, types[(i/len(PaperZones))%len(types)])
	}
	return b.Build()
}

// RandomSpec sizes Random clusters.
type RandomSpec struct {
	Nodes int
	// Types is the number of distinct synthetic instance types to draw;
	// nodes sharing a type are interchangeable, which keeps the LP small
	// (see cluster.Groups). Defaults to 6.
	Types int
	// Zones is the number of availability zones. Defaults to 3.
	Zones int
}

// The tops of the Fig. 5 caption's price ranges: 0–5 millicents per
// ECU-second, and 0–60 millicents per 64 MB block between zones.
const (
	maxCPUMillicent           = 5
	maxTransferMillicentBlock = 60
)

func (s RandomSpec) withDefaults() RandomSpec {
	if s.Types == 0 {
		s.Types = 6
	}
	if s.Zones == 0 {
		s.Zones = 3
	}
	return s
}

// Random builds a random heterogeneous cluster per the Fig. 5 simulation
// setup: node CPU prices uniform in [0, 5] mc/ECU·s and pairwise zone
// transfer prices uniform in [0, 60] mc per 64 MB block.
func Random(rng *rand.Rand, spec RandomSpec) *Cluster {
	spec = spec.withDefaults()
	zones := make([]string, spec.Zones)
	for i := range zones {
		zones[i] = fmt.Sprintf("zone-%c", 'a'+i)
	}
	b := NewBuilder(zones...)
	type synthType struct {
		name  string
		ecu   float64
		price cost.Money
	}
	types := make([]synthType, spec.Types)
	for i := range types {
		types[i] = synthType{
			name:  fmt.Sprintf("t%d", i),
			ecu:   1 + float64(rng.Intn(5)), // 1–5 ECU
			price: cost.Millicents(rng.Float64() * maxCPUMillicent),
		}
	}
	for i := 0; i < spec.Nodes; i++ {
		t := types[rng.Intn(len(types))]
		zone := zones[rng.Intn(len(zones))]
		b.AddNode(zone, t.name, t.ecu, 2, t.price, 400*1024)
	}
	for i := range zones {
		for j := i + 1; j < len(zones); j++ {
			perBlock := cost.Millicents(rng.Float64() * maxTransferMillicentBlock)
			b.SetZonePairPerGB(zones[i], zones[j], perBlock.MulFloat(1024/cost.BlockMB))
		}
	}
	return b.Build()
}

// Names lists the clusters ByName builds.
var Names = []string{"paper20", "paper100", "random"}

// ByName builds the cluster a command line names: the paper's 20-node
// testbed with fracC1 of its nodes c1.medium, the 100-node SWIM cluster,
// or a random cluster of the given node count drawn from rng.
func ByName(name string, fracC1 float64, nodes int, rng *rand.Rand) (*Cluster, error) {
	switch name {
	case "paper20":
		return Paper20(fracC1), nil
	case "paper100":
		return Paper100(), nil
	case "random":
		return Random(rng, RandomSpec{Nodes: nodes}), nil
	}
	return nil, fmt.Errorf("unknown cluster %q (want one of %v)", name, Names)
}
