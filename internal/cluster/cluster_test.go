package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lips/internal/cost"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("za", "zb")
	n0 := b.AddNode("za", "t0", 2, 2, cost.Millicents(1), 1000)
	n1 := b.AddNode("zb", "t0", 2, 2, cost.Millicents(1), 1000)
	c := b.Build()
	if len(c.Nodes) != 2 || len(c.Stores) != 2 {
		t.Fatalf("nodes=%d stores=%d", len(c.Nodes), len(c.Stores))
	}
	if c.Nodes[n0].Store != StoreID(0) || c.Nodes[n1].Store != StoreID(1) {
		t.Errorf("co-location broken: %d %d", c.Nodes[n0].Store, c.Nodes[n1].Store)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadTopology(t *testing.T) {
	c := &Cluster{
		Zones: []string{"za"},
		Nodes: []Node{{ID: 0, Name: "n", Zone: "nowhere", ECU: 1, Slots: 1, Store: None}},
	}
	if err := c.Validate(); err == nil {
		t.Error("expected error for unknown zone")
	}
	c2 := &Cluster{
		Zones: []string{"za"},
		Nodes: []Node{{ID: 0, Name: "n", Zone: "za", ECU: 0, Slots: 1, Store: None}},
	}
	if err := c2.Validate(); err == nil {
		t.Error("expected error for zero ECU")
	}
	c3 := &Cluster{
		Zones:  []string{"za"},
		Stores: []Store{{ID: 0, Name: "s", Zone: "za", Node: None, CapacityMB: 0}},
	}
	if err := c3.Validate(); err == nil {
		t.Error("expected error for zero capacity")
	}
}

func TestTransferCostMatrices(t *testing.T) {
	c := Paper20(0)
	// Node 0 and store 0 are co-located: free and fast.
	if c.MSPerGB(0, 0) != 0 {
		t.Error("co-located MS cost must be 0")
	}
	if c.BandwidthStoreNode(0, 0) != c.BW.LocalMBps {
		t.Error("co-located bandwidth must be local")
	}
	// Node 0 (zone a) and store 1 (zone b): paid and slower.
	if c.MSPerGB(0, 1) != cost.InterZonePerGB {
		t.Errorf("cross-zone MS = %v", c.MSPerGB(0, 1))
	}
	if c.BandwidthStoreNode(1, 0) != c.BW.InterZoneMBps {
		t.Error("cross-zone bandwidth wrong")
	}
	// Node 0 (zone a) and store 3 (zone a, different node): free but
	// network-limited.
	if c.MSPerGB(0, 3) != 0 {
		t.Errorf("intra-zone MS = %v, want 0", c.MSPerGB(0, 3))
	}
	if c.BandwidthStoreNode(3, 0) != c.BW.IntraZoneMBps {
		t.Error("intra-zone bandwidth wrong")
	}
	// SS symmetry and diagonal.
	if c.SSPerGB(2, 2) != 0 {
		t.Error("SS diagonal must be 0")
	}
	if c.SSPerGB(0, 1) != c.SSPerGB(1, 0) {
		t.Error("SS must be symmetric for zone-based pricing")
	}
}

func TestPaper20Composition(t *testing.T) {
	for _, tc := range []struct {
		frac   float64
		wantC1 int
	}{{0, 0}, {0.25, 5}, {0.5, 10}} {
		c := Paper20(tc.frac)
		if len(c.Nodes) != 20 {
			t.Fatalf("Paper20(%g): %d nodes", tc.frac, len(c.Nodes))
		}
		numC1 := 0
		zones := map[string]int{}
		for _, n := range c.Nodes {
			if n.Type == "c1.medium" {
				numC1++
			}
			zones[n.Zone]++
		}
		if numC1 != tc.wantC1 {
			t.Errorf("Paper20(%g): %d c1.medium nodes, want %d", tc.frac, numC1, tc.wantC1)
		}
		if len(zones) != 3 {
			t.Errorf("Paper20(%g): %d zones", tc.frac, len(zones))
		}
	}
}

func TestPaper100Composition(t *testing.T) {
	c := Paper100()
	if len(c.Nodes) != 100 {
		t.Fatalf("%d nodes", len(c.Nodes))
	}
	types := map[string]int{}
	zones := map[string]int{}
	for _, n := range c.Nodes {
		types[n.Type]++
		zones[n.Zone]++
	}
	if len(types) != 3 {
		t.Errorf("types = %v, want 3 kinds", types)
	}
	if len(zones) != 3 {
		t.Errorf("zones = %v, want 3", zones)
	}
	for ty, n := range types {
		if n < 20 || n > 46 {
			t.Errorf("type %s count %d is too skewed", ty, n)
		}
	}
}

func TestGroupsLossless(t *testing.T) {
	c := Paper100()
	groups := c.Groups()
	// 3 zones × 3 types = 9 groups.
	if len(groups) != 9 {
		t.Fatalf("%d groups, want 9", len(groups))
	}
	nodeCount, ecu := 0, 0.0
	seen := map[NodeID]bool{}
	for _, g := range groups {
		nodeCount += len(g.Nodes)
		ecu += g.TotalECU
		for _, n := range g.Nodes {
			if seen[n] {
				t.Fatalf("node %d in two groups", n)
			}
			seen[n] = true
			if c.Nodes[n].Zone != g.Zone || c.Nodes[n].Type != g.Type {
				t.Fatalf("node %d misplaced in group %s/%s", n, g.Zone, g.Type)
			}
		}
		if len(g.Stores) != len(g.Nodes) {
			t.Errorf("group %s/%s: %d stores for %d nodes", g.Zone, g.Type, len(g.Stores), len(g.Nodes))
		}
	}
	if nodeCount != 100 {
		t.Errorf("groups cover %d nodes", nodeCount)
	}
	if ecu != c.TotalECU() {
		t.Errorf("group ECU %g != cluster ECU %g", ecu, c.TotalECU())
	}
}

func TestGroupsDeterministic(t *testing.T) {
	a := Paper100().Groups()
	b := Paper100().Groups()
	for i := range a {
		if a[i].Zone != b[i].Zone || a[i].Type != b[i].Type {
			t.Fatalf("group order differs at %d", i)
		}
	}
}

func TestRandomClusterValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := Random(rng, RandomSpec{Nodes: 40})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 40 {
		t.Fatalf("%d nodes", len(c.Nodes))
	}
	if len(c.Groups()) > 18 {
		t.Errorf("%d groups, want at most types×zones = 18", len(c.Groups()))
	}
}

func TestQuickRandomClusterInvariants(t *testing.T) {
	check := func(seed int64, nNodes uint8) bool {
		n := 2 + int(nNodes)%60
		rng := rand.New(rand.NewSource(seed))
		c := Random(rng, RandomSpec{Nodes: n})
		if err := c.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Transfer prices in range: at most 60 mc per block.
		maxPerGB := cost.Millicents(60).MulFloat(1024 / cost.BlockMB)
		for i := range c.Stores {
			for j := range c.Stores {
				got := c.SSPerGB(StoreID(i), StoreID(j))
				if got < 0 || got > maxPerGB {
					t.Logf("seed %d: SS[%d][%d] = %v", seed, i, j, got)
					return false
				}
			}
		}
		for _, nd := range c.Nodes {
			if nd.PerECUSec > cost.Millicents(5) {
				t.Logf("seed %d: price %v out of range", seed, nd.PerECUSec)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestZonePairOverride(t *testing.T) {
	b := NewBuilder("za", "zb")
	b.AddNode("za", "t", 1, 1, 0, 100)
	b.AddNode("zb", "t", 1, 1, 0, 100)
	b.SetZonePairPerGB("zb", "za", cost.Dollars(1)) // reversed order on purpose
	c := b.Build()
	if got := c.SSPerGB(0, 1); got != cost.Dollars(1) {
		t.Errorf("override not applied: %v", got)
	}
	if got := c.SSPerGB(1, 0); got != cost.Dollars(1) {
		t.Errorf("override not symmetric: %v", got)
	}
}
