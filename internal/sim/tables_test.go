package sim

import (
	"math/rand"
	"sort"
	"testing"

	"lips/internal/cluster"
	"lips/internal/cost"
	"lips/internal/obs"
)

// checkZoneTables holds the simulator's zone-pair tables to the cluster's
// own functions on every (node, store) and (store, store) pair.
func checkZoneTables(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	s := New(c, twoTaskJob(), nil, &stubSched{}, Options{})
	for n := range c.Nodes {
		for st := range c.Stores {
			nid, sid := cluster.NodeID(n), cluster.StoreID(st)
			if got, want := s.msPerGB(nid, sid), c.MSPerGB(nid, sid); got != want {
				t.Fatalf("msPerGB(node %d, store %d) = %v, cluster %v", n, st, got, want)
			}
			if got, want := s.bandwidthStoreNode(sid, nid), c.BandwidthStoreNode(sid, nid); got != want {
				t.Fatalf("bandwidthStoreNode(store %d, node %d) = %g, cluster %g", st, n, got, want)
			}
		}
	}
	for a := range c.Stores {
		for b := range c.Stores {
			sa, sb := cluster.StoreID(a), cluster.StoreID(b)
			if got, want := s.ssPerGB(sa, sb), c.SSPerGB(sa, sb); got != want {
				t.Fatalf("ssPerGB(store %d, store %d) = %v, cluster %v", a, b, got, want)
			}
			if got, want := s.bandwidthStoreStore(sa, sb), c.BandwidthStoreStore(sa, sb); got != want {
				t.Fatalf("bandwidthStoreStore(store %d, store %d) = %g, cluster %g", a, b, got, want)
			}
		}
	}
}

// TestZoneTablesMatchCluster checks the tables on random clusters, whose
// zone-pair prices are drawn per pair, and on a builder cluster whose
// pair prices are installed in reverse name order, with one pair left to
// the default pricing, intra-zone reads priced, and a zone listed that
// no node or store uses.
func TestZoneTablesMatchCluster(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := cluster.Random(rand.New(rand.NewSource(seed)), cluster.RandomSpec{Nodes: 40, Zones: 2 + int(seed)})
		checkZoneTables(t, c)
	}
	b := cluster.NewBuilder("zc", "zb", "za", "unused")
	b.SetBandwidths(cluster.Bandwidths{LocalMBps: 90, IntraZoneMBps: 40, InterZoneMBps: 15})
	b.SetZonePairPerGB("zc", "za", cost.Millicents(700))
	b.SetZonePairPerGB("zb", "za", cost.Millicents(300))
	for i, z := range []string{"zc", "za", "zb", "za", "zc"} {
		b.AddNode(z, "t", 1+float64(i), 2, cost.Millicents(1), 1e6)
	}
	c := b.Build()
	// A priced intra-zone read tells a co-located store from a zone mate.
	c.Transfer.IntraZonePerGB = cost.Millicents(50)
	checkZoneTables(t, c)
}

// TestLocalityNamesMatchObs pins the order LaunchAt relies on: a
// Locality's value is its name's position in obs.Localities.
func TestLocalityNamesMatchObs(t *testing.T) {
	for i, name := range obs.Localities {
		if got := Locality(i).String(); got != name {
			t.Errorf("Locality(%d) = %q, obs.Localities[%d] = %q", i, got, i, name)
		}
	}
}

// TestEventOrderMatchesSort drives a seeded interleaving of typed
// events, closure events (some of which schedule more when they run) and
// pops, and checks that events leave the heap in the order of a sort by
// (at, seq), that closure slots are reused, and that no slot holds a
// func once the heap drains.
func TestEventOrderMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(oneNodeCluster(), twoTaskJob(), nil, &stubSched{}, Options{})
		type key struct {
			at  float64
			seq int64
		}
		var pushed, popped []key
		live, maxLive := 0, 0
		// A timeout whose generation matches no attempt is a no-op when
		// it runs; a closure counts itself and may schedule another.
		typed := func(at float64) {
			s.schedule(at, evTimeout, 0, 0, -1, 0)
			pushed = append(pushed, key{at, s.seq})
		}
		var closure func(at float64)
		closure = func(at float64) {
			s.At(at, func() {
				live--
				if rng.Intn(3) == 0 {
					closure(s.clock + float64(rng.Intn(5)))
				}
			})
			pushed = append(pushed, key{at, s.seq})
			live++
			maxLive = max(maxLive, live)
		}
		step := func() {
			ev := s.pop()
			s.clock = ev.at
			popped = append(popped, key{ev.at, ev.seq})
			s.exec(&ev)
		}
		for i := 0; i < 400; i++ {
			// Whole-number times force many same-time ties onto seq.
			at := s.clock + float64(rng.Intn(8))
			switch r := rng.Intn(3); {
			case r == 0:
				typed(at)
			case r == 1:
				closure(at)
			case len(s.events) > 0:
				step()
			}
		}
		for len(s.events) > 0 {
			step()
		}
		sort.Slice(pushed, func(i, j int) bool {
			if pushed[i].at != pushed[j].at {
				return pushed[i].at < pushed[j].at
			}
			return pushed[i].seq < pushed[j].seq
		})
		if len(popped) != len(pushed) {
			t.Fatalf("seed %d: popped %d events of %d pushed", seed, len(popped), len(pushed))
		}
		for i := range pushed {
			if popped[i] != pushed[i] {
				t.Fatalf("seed %d: event %d popped %+v, sort order has %+v", seed, i, popped[i], pushed[i])
			}
		}
		if len(s.fns) > maxLive {
			t.Errorf("seed %d: %d closure slots for at most %d closures in the heap at once", seed, len(s.fns), maxLive)
		}
		assertClosureSlotsFree(t, s)
	}
}

// assertClosureSlotsFree checks that a drained heap pins no closure and
// that every slot is on the free list.
func assertClosureSlotsFree(t *testing.T, s *Sim) {
	t.Helper()
	for i, fn := range s.fns {
		if fn != nil {
			t.Fatalf("closure slot %d still holds a func after the heap drained", i)
		}
	}
	if len(s.fnFree) != len(s.fns) {
		t.Fatalf("%d of %d closure slots on the free list", len(s.fnFree), len(s.fns))
	}
}

// TestClosureSlotsFreeAfterRun runs the closure paths, shared-link flows
// and injected faults, to completion and checks that no closure slot is
// left holding a func.
func TestClosureSlotsFreeAfterRun(t *testing.T) {
	c, w := buildScaleRun(24, 400, 5)
	plan := RandomFaultPlan(5, c, FaultSpec{Crashes: 2, StoreLosses: 1, Slowdowns: 1, WindowSec: 300, DowntimeSec: 60})
	s := New(c, w, nil, &batchStub{}, Options{SharedLinks: true, Faults: plan})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.fns) == 0 {
		t.Fatal("no closure event ran: the scenario is vacuous")
	}
	assertClosureSlotsFree(t, s)
}
