// Package hdfs models the Hadoop data layer LiPS co-schedules: data
// objects split into 64 MB blocks, block→store placements with optional
// replication, a Hadoop-style replication target chooser, and the random
// shuffling placement used as the Fig. 5 baseline.
package hdfs

import (
	"fmt"
	"math"
	"math/rand"

	"lips/internal/cluster"
	"lips/internal/cost"
)

// ObjectID identifies a data object within a Placement.
type ObjectID int

// DataObject is one logical input (the paper's D_i): a named file-like
// object of SizeMB megabytes split into 64 MB blocks.
type DataObject struct {
	ID     ObjectID
	Name   string
	SizeMB float64
	// Origin is O_i, the store the object initially lives on.
	Origin cluster.StoreID
}

// NumBlocks returns the number of 64 MB blocks (the last may be partial).
func (d DataObject) NumBlocks() int {
	if d.SizeMB <= 0 {
		return 0
	}
	return int(math.Ceil(d.SizeMB / cost.BlockMB))
}

// BlockSizeMB returns the size of block b (the final block may be short).
func (d DataObject) BlockSizeMB(b int) float64 {
	n := d.NumBlocks()
	if b < 0 || b >= n {
		panic(fmt.Sprintf("hdfs: block %d out of range for %q (%d blocks)", b, d.Name, n))
	}
	if b == n-1 {
		rem := d.SizeMB - float64(n-1)*cost.BlockMB
		return rem
	}
	return cost.BlockMB
}

// Placement tracks, for every object, the store(s) holding each block.
// Index 0 of a block's replica list is the primary copy.
type Placement struct {
	objects []DataObject
	blocks  [][][]cluster.StoreID // [object][block][replica]
}

// NewPlacement creates a placement with every block of every object on its
// object's origin store (replication factor 1).
func NewPlacement(objects []DataObject) *Placement {
	p := &Placement{objects: append([]DataObject(nil), objects...)}
	p.blocks = make([][][]cluster.StoreID, len(objects))
	for i, d := range objects {
		if d.ID != ObjectID(i) {
			panic(fmt.Sprintf("hdfs: object %d has ID %d", i, d.ID))
		}
		p.blocks[i] = make([][]cluster.StoreID, d.NumBlocks())
		for b := range p.blocks[i] {
			p.blocks[i][b] = []cluster.StoreID{d.Origin}
		}
	}
	return p
}

// AddObject appends a new object to a live placement with every block on
// the object's origin store (replication factor 1) — how a streaming
// submission's input enters an already-running cluster. The object's ID
// must be the next free slot.
func (p *Placement) AddObject(d DataObject) {
	if d.ID != ObjectID(len(p.objects)) {
		panic(fmt.Sprintf("hdfs: AddObject %q has ID %d, want %d", d.Name, d.ID, len(p.objects)))
	}
	p.objects = append(p.objects, d)
	blocks := make([][]cluster.StoreID, d.NumBlocks())
	for b := range blocks {
		blocks[b] = []cluster.StoreID{d.Origin}
	}
	p.blocks = append(p.blocks, blocks)
}

// Object returns one object by ID.
func (p *Placement) Object(id ObjectID) DataObject { return p.objects[id] }

// Replicas returns the replica stores of a block (primary first). The
// returned slice is owned by the placement; do not mutate.
func (p *Placement) Replicas(obj ObjectID, block int) []cluster.StoreID {
	return p.blocks[obj][block]
}

// Primary returns the primary store of a block.
func (p *Placement) Primary(obj ObjectID, block int) cluster.StoreID {
	return p.blocks[obj][block][0]
}

// SetPrimary moves the primary copy of a block to the given store,
// dropping other replicas.
func (p *Placement) SetPrimary(obj ObjectID, block int, s cluster.StoreID) {
	p.blocks[obj][block] = []cluster.StoreID{s}
}

// AddReplica appends a replica for a block if not already present.
func (p *Placement) AddReplica(obj ObjectID, block int, s cluster.StoreID) {
	for _, r := range p.blocks[obj][block] {
		if r == s {
			return
		}
	}
	p.blocks[obj][block] = append(p.blocks[obj][block], s)
}

// HasReplicaOn reports whether any replica of the block lives on s.
func (p *Placement) HasReplicaOn(obj ObjectID, block int, s cluster.StoreID) bool {
	for _, r := range p.blocks[obj][block] {
		if r == s {
			return true
		}
	}
	return false
}

// BlockRef identifies one block of one object.
type BlockRef struct {
	Object ObjectID
	Block  int
}

// DropStore removes store s from every block's replica list — a store
// data-loss event. When the primary copy is lost, the first surviving
// replica is promoted. It returns the blocks left under-replicated (they
// lost a copy but others survive) and the blocks left with no copy at
// all; the caller must re-materialize the latter (the simulator re-creates
// them on a fallback store), as until then those blocks have an empty
// replica list.
func (p *Placement) DropStore(s cluster.StoreID) (under, lost []BlockRef) {
	for i := range p.blocks {
		for b := range p.blocks[i] {
			reps := p.blocks[i][b]
			kept := reps[:0:0]
			for _, r := range reps {
				if r != s {
					kept = append(kept, r)
				}
			}
			if len(kept) == len(reps) {
				continue
			}
			p.blocks[i][b] = kept
			ref := BlockRef{Object: ObjectID(i), Block: b}
			if len(kept) == 0 {
				lost = append(lost, ref)
			} else {
				under = append(under, ref)
			}
		}
	}
	return under, lost
}

// Fractions returns, for one object, the fraction of its primary blocks on
// each store — the x^d_ij view the LiPS LP consumes.
func (p *Placement) Fractions(obj ObjectID) map[cluster.StoreID]float64 {
	out := make(map[cluster.StoreID]float64)
	n := len(p.blocks[obj])
	if n == 0 {
		return out
	}
	for b := range p.blocks[obj] {
		out[p.Primary(obj, b)] += 1 / float64(n)
	}
	return out
}

// BlocksOn returns the indices of the object's blocks whose primary copy
// is on s, in ascending order.
func (p *Placement) BlocksOn(obj ObjectID, s cluster.StoreID) []int {
	var out []int
	for b := range p.blocks[obj] {
		if p.Primary(obj, b) == s {
			out = append(out, b)
		}
	}
	return out
}

// UsedMB returns the number of megabytes of primary copies on each store.
func (p *Placement) UsedMB() map[cluster.StoreID]float64 {
	out := make(map[cluster.StoreID]float64)
	for i := range p.objects {
		d := p.objects[i]
		for b := range p.blocks[i] {
			out[p.Primary(ObjectID(i), b)] += d.BlockSizeMB(b)
		}
	}
	return out
}

// Shuffle redistributes every block's primary copy uniformly at random
// over the given stores — the Fig. 5 baseline placement ("shuffles the
// data blocks randomly within the cluster").
func (p *Placement) Shuffle(rng *rand.Rand, stores []cluster.StoreID) {
	if len(stores) == 0 {
		panic("hdfs: Shuffle with no stores")
	}
	for i := range p.blocks {
		for b := range p.blocks[i] {
			p.blocks[i][b] = []cluster.StoreID{stores[rng.Intn(len(stores))]}
		}
	}
}
