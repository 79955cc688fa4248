package sim

import (
	"slices"

	"lips/internal/cluster"
	"lips/internal/cost"
)

// locIndex is one job's locality index: the job's task indices grouped
// by where their input blocks live, as one sorted run of packed entries
// key<<32 | task. A key below len(C.Stores) is a store, and its run lists
// every task with a replica on that store; a key len(C.Stores)+z is
// interned zone z, and its run lists every task with a replica in that
// zone. Runs are ascending by task, so a binary search for key<<32|from
// lands on the key's first task at or above from. gen is the placement
// generation of the job's object the entries were built from.
//
// It is Hadoop 1's nonRunningMapCache (node/rack → tasks) without the
// removal on launch: entries of tasks that left Pending stay, and a walk
// skips them by reading the state column.
type locIndex struct {
	gen     uint32
	entries []uint64
}

// internZones gives every node and store the index of its zone among
// the distinct zones, so locality checks compare integers, copies every
// node's store into a dense column, and tabulates
// the cluster's ZonePerGB and ZoneMBps over every pair of those zones, so
// an attempt prices and times its read with two array reads.
func (s *Sim) internZones() {
	ids := make(map[string]int32, len(s.C.Zones))
	var names []string
	id := func(z string) int32 {
		v, ok := ids[z]
		if !ok {
			v = int32(len(ids))
			ids[z] = v
			names = append(names, z)
		}
		return v
	}
	s.nodeZone = make([]int32, len(s.C.Nodes))
	s.nodeStore = make([]int32, len(s.C.Nodes))
	for n := range s.C.Nodes {
		s.nodeZone[n] = id(s.C.Nodes[n].Zone)
		s.nodeStore[n] = int32(s.C.Nodes[n].Store)
	}
	s.storeZone = make([]int32, len(s.C.Stores))
	for st := range s.C.Stores {
		s.storeZone[st] = id(s.C.Stores[st].Zone)
	}
	z := len(names)
	s.zones = z
	s.zonePerGB = make([]cost.Money, z*z)
	s.zoneMBps = make([]float64, z*z)
	for a, za := range names {
		for b, zb := range names {
			s.zonePerGB[a*z+b] = s.C.ZonePerGB(za, zb)
			s.zoneMBps[a*z+b] = s.C.ZoneMBps(za, zb)
		}
	}
}

// msPerGB is C.MSPerGB(n, st) from the zone table.
func (s *Sim) msPerGB(n cluster.NodeID, st cluster.StoreID) cost.Money {
	if cluster.StoreID(s.nodeStore[n]) == st {
		return 0
	}
	return s.zonePerGB[int(s.nodeZone[n])*s.zones+int(s.storeZone[st])]
}

// ssPerGB is C.SSPerGB(a, b) from the zone table.
func (s *Sim) ssPerGB(a, b cluster.StoreID) cost.Money {
	if a == b {
		return 0
	}
	return s.zonePerGB[int(s.storeZone[a])*s.zones+int(s.storeZone[b])]
}

// bandwidthStoreNode is C.BandwidthStoreNode(st, n) from the zone table.
func (s *Sim) bandwidthStoreNode(st cluster.StoreID, n cluster.NodeID) float64 {
	if cluster.StoreID(s.nodeStore[n]) == st {
		return s.C.BW.LocalMBps
	}
	return s.zoneMBps[int(s.storeZone[st])*s.zones+int(s.nodeZone[n])]
}

// bandwidthStoreStore is C.BandwidthStoreStore(a, b) from the zone table.
func (s *Sim) bandwidthStoreStore(a, b cluster.StoreID) float64 {
	if a == b {
		return s.C.BW.LocalMBps
	}
	return s.zoneMBps[int(s.storeZone[a])*s.zones+int(s.storeZone[b])]
}

// IndexLocality builds the locality index of an arrived, incomplete job
// with input, so that BestLocalityTask answers for it without probing
// every pending task. The slot schedulers call it on arrival; the index
// lives until the job leaves the active list. Other jobs are ignored.
func (s *Sim) IndexLocality(job int) {
	if s.jobs[job].active && s.W.Jobs[job].HasInput() {
		s.indexLocality(job)
	}
}

// locOf returns a job's locality index, or nil.
func (s *Sim) locOf(job int) *locIndex {
	if job < len(s.locs) {
		return s.locs[job]
	}
	return nil
}

// indexLocality (re)builds a job's locality index from the placement,
// reusing the storage of the index it replaces.
func (s *Sim) indexLocality(job int) *locIndex {
	if job >= len(s.locs) {
		s.locs = append(s.locs, make([]*locIndex, len(s.jobs)-len(s.locs))...)
	}
	ix := s.locs[job]
	if ix == nil {
		ix = &locIndex{}
		s.locs[job] = ix
	}
	obj := s.W.Jobs[job].Object
	zoneKey := uint64(len(s.C.Stores))
	tasks := s.W.Jobs[job].NumTasks
	entries := ix.entries[:0]
	if cap(entries) == 0 {
		entries = make([]uint64, 0, 2*tasks)
	}
	for t := 0; t < tasks; t++ {
		reps := s.P.Replicas(obj, t)
		for i, r := range reps {
			entries = append(entries, uint64(r)<<32|uint64(t))
			z := s.storeZone[r]
			seen := false
			for _, q := range reps[:i] {
				if s.storeZone[q] == z {
					seen = true
					break
				}
			}
			if !seen {
				entries = append(entries, (zoneKey+uint64(z))<<32|uint64(t))
			}
		}
	}
	slices.Sort(entries)
	ix.entries, ix.gen = entries, s.P.Gen(obj)
	return ix
}

// BestLocalityTask returns the Pending task of job j whose input is
// closest to node n, the replica it would read and its locality rank (0
// node-local, 1 zone-local, 2 remote): the lowest-index Pending task of
// minimum rank, with the replica BestReplicaRank picks for it. A job
// without input gets its lowest Pending task, NoStore and rank 0; a job
// with nothing Pending gets task -1.
//
// It reads the job's locality index: the Pending tasks with a replica on
// n's store, then those with a replica in n's zone, then the lowest
// Pending task, each walk starting at the job's cursor. An index built
// before the object's placement generation moved (a block landed, a
// store was lost) is rebuilt first, as is a missing one.
func (s *Sim) BestLocalityTask(job int, n cluster.NodeID) (task int, store cluster.StoreID, rank int) {
	first := s.NextPending(job, 0)
	if first < 0 {
		return -1, NoStore, 0
	}
	if !s.W.Jobs[job].HasInput() {
		return first, NoStore, 0
	}
	ix := s.locOf(job)
	if ix == nil || ix.gen != s.P.Gen(s.W.Jobs[job].Object) {
		ix = s.indexLocality(job)
	}
	t := -1
	if st := cluster.StoreID(s.nodeStore[n]); st != cluster.None {
		t = s.walkLocality(job, ix.entries, uint64(st))
	}
	if t < 0 {
		t = s.walkLocality(job, ix.entries, uint64(len(s.C.Stores))+uint64(s.nodeZone[n]))
	}
	if t < 0 {
		t = first
	}
	store, rank = s.BestReplicaRank(job, t, n)
	return t, store, rank
}

// walkLocality returns the lowest Pending task in key's run of a job's
// index, starting at the job's cursor, or -1.
func (s *Sim) walkLocality(job int, entries []uint64, key uint64) int {
	i, _ := slices.BinarySearch(entries, key<<32|uint64(s.jobs[job].cursor))
	base := s.taskBase[job]
	for ; i < len(entries) && entries[i]>>32 == key; i++ {
		t := int32(uint32(entries[i]))
		if TaskState(s.states[base+t]) == Pending {
			return int(t)
		}
	}
	return -1
}
