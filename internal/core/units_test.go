package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
)

// remoteStoreCluster is a small cluster that exercises every branch of the
// transfer model: an explicit price on one zone pair only (the others fall
// back to Transfer), a nonzero intra-zone price (so a co-located read is
// the only free one), non-default bandwidths, and node-less remote stores,
// one of them in a zone no node is in. The remote stores come first, so
// per node, store unit l is not machine unit l's store.
func remoteStoreCluster() *cluster.Cluster {
	b := cluster.NewBuilder("za", "zb", "zc", "zd")
	b.SetBandwidths(cluster.Bandwidths{LocalMBps: 90, IntraZoneMBps: 40, InterZoneMBps: 15})
	b.SetZonePairPerGB("zb", "za", cost.Millicents(1234))
	for _, n := range []struct {
		zone, typ string
		ecu       float64
		count     int
	}{{"za", "t", 2, 3}, {"zb", "t", 2, 2}, {"zb", "u", 4, 1}, {"zc", "u", 4, 2}} {
		for i := 0; i < n.count; i++ {
			b.AddNode(n.zone, n.typ, n.ecu, 2, cost.Millicents(n.ecu), 1e6)
		}
	}
	c := b.Build()
	c.Transfer = cost.TransferPricing{IntraZonePerGB: cost.Millicents(3), InterZonePerGB: cost.Millicents(700)}
	remote := []cluster.Store{
		{Name: "remote-zd", Zone: "zd", Node: cluster.None, CapacityMB: 5e6},
		{Name: "remote-zc", Zone: "zc", Node: cluster.None, CapacityMB: 5e6},
	}
	c.Stores = append(remote, c.Stores...)
	for i := range c.Stores {
		c.Stores[i].ID = cluster.StoreID(i)
	}
	for i := range c.Nodes {
		c.Nodes[i].Store += cluster.StoreID(len(remote))
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// TestUnitsMatricesMatchCluster holds every MS, B and SS entry of an
// instance to the bit against the cluster's per-entry definitions on the
// unit representatives (the first node of a machine unit, the first store
// of a store unit), also after FilterMachines drops a node and a whole
// unit and after AddFakeNode appends F.
func TestUnitsMatricesMatchCluster(t *testing.T) {
	random := func(spec cluster.RandomSpec) *cluster.Cluster {
		return cluster.Random(rand.New(rand.NewSource(1)), spec)
	}
	for _, tc := range []struct {
		name      string
		c         *cluster.Cluster
		aggregate bool
	}{
		{"paper100", cluster.Paper100(), true},
		{"paper100/per-node", cluster.Paper100(), false},
		{"random-1k", random(cluster.RandomSpec{Nodes: 1000}), true},
		{"random-10k-60", random(cluster.RandomSpec{Nodes: 10000, Types: 60}), true},
		{"remote-stores", remoteStoreCluster(), true},
		{"remote-stores/per-node", remoteStoreCluster(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			u := NewUnits(c, tc.aggregate)
			in, err := u.Instance(nil, nil, nil, 60)
			if err != nil {
				t.Fatal(err)
			}
			nm := len(in.Machines)
			rep := make([]cluster.NodeID, nm)
			all := make([]int, nm)
			for l, m := range in.Machines {
				rep[l], all[l] = m.Nodes[0], l
			}
			checkUnitMatrices(t, c, in, rep, all)

			// Down unit 0's representative and every node of the last
			// unit: unit 0 shrinks (or, per node, goes) and the last one
			// goes.
			down := map[cluster.NodeID]bool{rep[0]: true}
			for _, n := range in.Machines[nm-1].Nodes {
				down[n] = true
			}
			var kept []int
			for l, m := range in.Machines {
				for _, n := range m.Nodes {
					if !down[n] {
						kept = append(kept, l)
						break
					}
				}
			}
			in, err = u.Instance(nil, nil, nil, 60)
			if err != nil {
				t.Fatal(err)
			}
			if !in.FilterMachines(func(n cluster.NodeID) bool { return !down[n] }) {
				t.Fatal("FilterMachines reported no change")
			}
			if len(in.Machines) != len(kept) {
				t.Fatalf("%d machines after the filter, want %d", len(in.Machines), len(kept))
			}
			checkUnitMatrices(t, c, in, rep, kept)

			f := in.AddFakeNode(FakeNodePriceMC)
			checkUnitMatrices(t, c, in, rep, kept)
			for m := range in.Stores {
				if in.MSPerMBMC[f][m] != 0 || in.BandwidthMBps[f][m] != math.MaxFloat64/1e30 {
					t.Fatalf("fake row, store %d: MS %g, B %g", m, in.MSPerMBMC[f][m], in.BandwidthMBps[f][m])
				}
			}
		})
	}
}

// checkUnitMatrices compares in's real machine rows — row i is unit
// kept[i], represented by node rep[kept[i]] — and its SS matrix with the
// cluster's per-entry prices and bandwidths.
func checkUnitMatrices(t *testing.T, c *cluster.Cluster, in *Instance, rep []cluster.NodeID, kept []int) {
	t.Helper()
	same := func(got, want float64, format string, args ...any) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v (%#x), cluster says %v (%#x)", fmt.Sprintf(format, args...), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i, l := range kept {
		n := rep[l]
		for m, su := range in.Stores {
			s := su.Stores[0]
			same(in.MSPerMBMC[i][m], c.MSPerGB(n, s).ToMillicents()/1024, "MS[%d][%d] (node %d, store %d)", i, m, n, s)
			same(in.BandwidthMBps[i][m], c.BandwidthStoreNode(s, n), "B[%d][%d] (node %d, store %d)", i, m, n, s)
		}
	}
	for a, sa := range in.Stores {
		for b, sb := range in.Stores {
			same(in.SSPerMBMC[a][b], c.SSPerGB(sa.Stores[0], sb.Stores[0]).ToMillicents()/1024, "SS[%d][%d]", a, b)
		}
	}
}
