package sim

import (
	"math/rand"
	"slices"
	"testing"

	"lips/internal/cluster"
)

// bestLocalityScan is the scan BestLocalityTask replaced, kept naive: it
// visits every task of job j in index order, skips all but the Pending
// ones, and ranks each replica by comparing store ids and zone names.
// The first (task, replica) of minimum rank wins — the lowest-index
// Pending task of minimum rank, with the first of its replicas at that
// rank. A job without input answers with its lowest Pending task.
func bestLocalityScan(s *Sim, j int, n cluster.NodeID) (task int, store cluster.StoreID, rank int) {
	task, store = -1, NoStore
	job := s.W.Jobs[j]
	for t := 0; t < job.NumTasks; t++ {
		if TaskState(s.states[s.taskBase[j]+int32(t)]) != Pending {
			continue
		}
		if !job.HasInput() {
			return t, NoStore, 0
		}
		for _, r := range s.P.Replicas(job.Object, t) {
			rk := 2
			switch {
			case s.C.Nodes[n].Store == r:
				rk = 0
			case s.C.Nodes[n].Zone == s.C.Stores[r].Zone:
				rk = 1
			}
			if task < 0 || rk < rank {
				task, store, rank = t, r, rk
			}
		}
	}
	return task, store, rank
}

// verifyLocality asks BestLocalityTask about every active job on a few
// nodes drawn from rng and requires the scan's answer. It reports how
// many of those jobs had an index built before their object's placement
// generation last moved; every such index must be current once asked.
func verifyLocality(t *testing.T, s *Sim, rng *rand.Rand) (stale int) {
	t.Helper()
	for j := s.NextArrived(-1); j >= 0; j = s.NextArrived(j) {
		job := s.W.Jobs[j]
		for k := 0; k < 3; k++ {
			n := cluster.NodeID(rng.Intn(len(s.C.Nodes)))
			if ix := s.locOf(j); ix != nil && ix.gen != s.P.Gen(job.Object) {
				stale++
			}
			gt, gs, gr := s.BestLocalityTask(j, n)
			wt, ws, wr := bestLocalityScan(s, j, n)
			if gt != wt || gs != ws || gr != wr {
				t.Fatalf("t=%.1f job %d node %d: BestLocalityTask = (%d, %d, %d), scan (%d, %d, %d)",
					s.Now(), j, n, gt, gs, gr, wt, ws, wr)
			}
			if ix := s.locOf(j); job.HasInput() && gt >= 0 && (ix == nil || ix.gen != s.P.Gen(job.Object)) {
				t.Fatalf("job %d: asked, but its index is missing or behind the placement", j)
			}
		}
	}
	return stale
}

// verifyLocalityIndexes holds every job's locality index to the
// placement: none outlives the active list, and one whose generation
// matches its object's lists exactly the (store, task) and (zone, task)
// pairs the placement holds now, sorted.
func verifyLocalityIndexes(t *testing.T, s *Sim) {
	t.Helper()
	for j := range s.jobs {
		ix := s.locOf(j)
		if ix == nil {
			continue
		}
		if !s.jobs[j].active {
			t.Fatalf("job %d left the active list but kept its locality index", j)
		}
		job := s.W.Jobs[j]
		if ix.gen != s.P.Gen(job.Object) {
			continue // rebuilt at its next query
		}
		var want []uint64
		for task := 0; task < job.NumTasks; task++ {
			var zones []int32
			for _, r := range s.P.Replicas(job.Object, task) {
				want = append(want, uint64(r)<<32|uint64(task))
				if z := s.storeZone[r]; !slices.Contains(zones, z) {
					zones = append(zones, z)
					want = append(want, uint64(len(s.C.Stores)+int(z))<<32|uint64(task))
				}
			}
		}
		slices.Sort(want)
		if !slices.Equal(ix.entries, want) {
			t.Fatalf("job %d: locality index at generation %d is not the placement's", j, ix.gen)
		}
	}
}

// TestInternedZones checks that the interned zone ids agree with the
// zone names on every node-store pair.
func TestInternedZones(t *testing.T) {
	c, w := buildScaleRun(48, 100, 1)
	s := New(c, w, nil, &stubSched{}, Options{})
	for n := range c.Nodes {
		for st := range c.Stores {
			if got, want := s.nodeZone[n] == s.storeZone[st], c.Nodes[n].Zone == c.Stores[st].Zone; got != want {
				t.Fatalf("node %d, store %d: same interned zone %v, same zone name %v", n, st, got, want)
			}
		}
	}
}

// TestLocalityIndexFollowsPlacement runs a FIFO locality-greedy stub
// that indexes jobs on arrival, while block moves land under it and
// injected store losses drop, re-replicate and re-materialize blocks,
// some of which start with a second replica. At every callback each
// active job's answer must be the scan's, and the indexes must match the
// placement wherever their generation does; the run must rebuild stale
// indexes along the way.
func TestLocalityIndexFollowsPlacement(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c, w := buildScaleRun(32, 500, seed)
		prng := rand.New(rand.NewSource(seed * 71))
		p := w.Placement()
		p.Shuffle(prng, c.StoreIDs())
		for _, obj := range w.Objects {
			for b := 0; b < obj.NumBlocks(); b++ {
				if prng.Intn(3) == 0 {
					p.AddReplica(obj.ID, b, cluster.StoreID(prng.Intn(len(c.Stores))))
				}
			}
		}
		rng := rand.New(rand.NewSource(seed * 83))
		stale, moves := 0, 0
		check := func(s *Sim, strict bool) {
			verifyIndexes(t, s, strict)
			stale += verifyLocality(t, s, rng)
		}
		ss := &stubSched{name: "locality-stub"}
		ss.onArrival = func(s *Sim, j int) {
			s.IndexLocality(j)
			s.KickIdleNodes()
		}
		ss.onSlotFree = func(s *Sim, n cluster.NodeID) {
			check(s, false)
			if j := s.NextArrived(-1); j >= 0 && s.W.Jobs[j].HasInput() && rng.Intn(3) == 0 {
				obj := s.W.Jobs[j].Object
				s.MoveBlock(int(obj), rng.Intn(s.W.Jobs[j].NumTasks), cluster.StoreID(rng.Intn(len(s.C.Stores))))
				moves++
			}
			for s.FreeSlots(n) > 0 {
				launched := false
				for j := s.NextArrived(-1); j >= 0; j = s.NextArrived(j) {
					if task, store, _ := s.BestLocalityTask(j, n); task >= 0 {
						launched = s.Launch(j, task, n, store) == nil
						break
					}
				}
				if !launched {
					return
				}
			}
		}
		ss.onTaskDone = func(s *Sim, _, _ int) { check(s, true) }
		s := New(c, w, p, ss, Options{})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		for step := 1; !s.Drained(); step++ {
			if step%2 == 0 && step <= 16 {
				if err := s.InjectFault(Fault{At: s.Now(), Kind: FaultStoreLoss, Store: cluster.StoreID(rng.Intn(len(c.Stores)))}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.StepUntil(float64(step) * 120); err != nil {
				t.Fatal(err)
			}
			if step > 10000 {
				t.Fatalf("seed %d: not drained at t=%.0f", seed, s.Now())
			}
		}
		check(s, true)
		f := s.Faults
		if moves == 0 || f.StoresLost == 0 || f.BlocksReplicated == 0 || stale == 0 {
			t.Fatalf("seed %d: %d moves, %d stores lost, %d blocks re-replicated, %d stale indexes asked: the placement must move under the indexes",
				seed, moves, f.StoresLost, f.BlocksReplicated, stale)
		}
	}
}
