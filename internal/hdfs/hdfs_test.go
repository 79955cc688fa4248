package hdfs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lips/internal/cluster"
)

func twoObjects() []DataObject {
	return []DataObject{
		{ID: 0, Name: "logs", SizeMB: 200, Origin: 0}, // 4 blocks (3×64 + 8)
		{ID: 1, Name: "web", SizeMB: 64, Origin: 1},   // 1 block
	}
}

func TestNumBlocksAndSizes(t *testing.T) {
	d := DataObject{Name: "x", SizeMB: 200}
	if d.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d", d.NumBlocks())
	}
	total := 0.0
	for b := 0; b < d.NumBlocks(); b++ {
		total += d.BlockSizeMB(b)
	}
	if math.Abs(total-200) > 1e-9 {
		t.Errorf("blocks sum to %g", total)
	}
	if d.BlockSizeMB(3) != 200-3*64 {
		t.Errorf("last block = %g", d.BlockSizeMB(3))
	}
	if (DataObject{SizeMB: 0}).NumBlocks() != 0 {
		t.Error("empty object should have 0 blocks")
	}
	if (DataObject{SizeMB: 64}).NumBlocks() != 1 {
		t.Error("64MB object should have 1 block")
	}
}

func TestBlockSizePanics(t *testing.T) {
	defer func() {
		err, ok := recover().(error)
		if !ok || err.Error() != `hdfs: block 1 out of range for "x" (1 blocks)` {
			t.Errorf("panic value %v", err)
		}
	}()
	DataObject{Name: "x", SizeMB: 64}.BlockSizeMB(1)
}

// TestBlockSizeMatchesFormula holds BlockSizeMB to the formula written
// out, bit for bit, at the edges: sizes on and next to exact multiples of
// 64 MB, sizes far below one block, and sizes of millions of blocks.
func TestBlockSizeMatchesFormula(t *testing.T) {
	want := func(size float64, b int) float64 {
		n := int(math.Ceil(size / 64))
		if b == n-1 {
			return size - float64(n-1)*64
		}
		return 64
	}
	var sizes []float64
	for _, blocks := range []float64{1, 2, 3, 15, 64, 1000, 1 << 20, 1 << 40} {
		mb := blocks * 64
		sizes = append(sizes, mb, math.Nextafter(mb, 0), math.Nextafter(mb, math.Inf(1)), mb-1e-9, mb+0.5)
	}
	sizes = append(sizes, math.SmallestNonzeroFloat64, 1e-300, 1e-9, 0.001, 1, 63.999999)
	for _, size := range sizes {
		d := DataObject{Name: "x", SizeMB: size}
		n := d.NumBlocks()
		for _, b := range []int{0, 1, n / 2, n - 2, n - 1} {
			if b < 0 || b >= n {
				continue
			}
			if got, w := d.BlockSizeMB(b), want(size, b); math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("%g MB, block %d of %d: %g, formula %g", size, b, n, got, w)
			}
		}
	}
}

func TestNewPlacementOnOrigin(t *testing.T) {
	p := NewPlacement(twoObjects())
	for b := 0; b < 4; b++ {
		if p.Primary(0, b) != 0 {
			t.Errorf("block %d not on origin", b)
		}
	}
	if p.Primary(1, 0) != 1 {
		t.Error("object 1 not on origin")
	}
	fr := p.Fractions(0)
	if math.Abs(fr[0]-1) > 1e-9 || len(fr) != 1 {
		t.Errorf("Fractions = %v", fr)
	}
}

func TestSetPrimaryAndFractions(t *testing.T) {
	p := NewPlacement(twoObjects())
	p.SetPrimary(0, 0, 2)
	p.SetPrimary(0, 1, 2)
	fr := p.Fractions(0)
	if math.Abs(fr[2]-0.5) > 1e-9 || math.Abs(fr[0]-0.5) > 1e-9 {
		t.Errorf("Fractions = %v", fr)
	}
	if got := p.BlocksOn(0, 2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("BlocksOn = %v", got)
	}
	used := p.UsedMB()
	if math.Abs(used[2]-128) > 1e-9 {
		t.Errorf("UsedMB[2] = %g", used[2])
	}
	// 200-128 on store 0 plus object 1's 64 on store 1.
	if math.Abs(used[0]-72) > 1e-9 || math.Abs(used[1]-64) > 1e-9 {
		t.Errorf("UsedMB = %v", used)
	}
}

func TestReplicas(t *testing.T) {
	p := NewPlacement(twoObjects())
	p.AddReplica(0, 0, 5)
	p.AddReplica(0, 0, 5) // duplicate ignored
	if got := p.Replicas(0, 0); len(got) != 2 || got[1] != 5 {
		t.Errorf("Replicas = %v", got)
	}
	if !p.HasReplicaOn(0, 0, 5) || p.HasReplicaOn(0, 1, 5) {
		t.Error("HasReplicaOn wrong")
	}
	if p.Primary(0, 0) != 0 {
		t.Error("primary must stay first")
	}
}

func TestShuffleCoversStores(t *testing.T) {
	objs := []DataObject{{ID: 0, Name: "big", SizeMB: 64 * 500, Origin: 0}}
	p := NewPlacement(objs)
	stores := []cluster.StoreID{0, 1, 2, 3}
	p.Shuffle(rand.New(rand.NewSource(1)), stores)
	fr := p.Fractions(0)
	if len(fr) != 4 {
		t.Fatalf("shuffle used %d stores", len(fr))
	}
	for s, f := range fr {
		if f < 0.15 || f > 0.35 {
			t.Errorf("store %d got fraction %g, expected near 0.25", s, f)
		}
	}
}

func TestQuickFractionsSumToOne(t *testing.T) {
	check := func(seed int64, sz uint16) bool {
		size := 1 + float64(sz%5000)
		objs := []DataObject{{ID: 0, Name: "o", SizeMB: size, Origin: 0}}
		p := NewPlacement(objs)
		rng := rand.New(rand.NewSource(seed))
		p.Shuffle(rng, []cluster.StoreID{0, 1, 2, 3, 4})
		sum := 0.0
		for _, f := range p.Fractions(0) {
			sum += f
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGenerationsFollowMutations checks that each mutator moves the
// generation of exactly the objects whose replica lists it changed.
func TestGenerationsFollowMutations(t *testing.T) {
	objs := append(twoObjects(), DataObject{ID: 2, Name: "img", SizeMB: 128, Origin: 2})
	p := NewPlacement(objs)
	step := func(what string, changed []ObjectID, mutate func()) {
		t.Helper()
		before := make([]uint32, len(p.gen))
		for i := range before {
			before[i] = p.Gen(ObjectID(i))
		}
		mutate()
		for i := range before {
			moved := p.Gen(ObjectID(i)) != before[i]
			want := false
			for _, c := range changed {
				want = want || c == ObjectID(i)
			}
			if moved != want {
				t.Errorf("%s: object %d generation moved %v, want %v", what, i, moved, want)
			}
		}
	}
	step("SetPrimary", []ObjectID{1}, func() { p.SetPrimary(1, 0, 2) })
	step("AddReplica of a new store", []ObjectID{0}, func() { p.AddReplica(0, 1, 3) })
	step("AddReplica of a store it holds", nil, func() { p.AddReplica(0, 1, 3) })
	step("DropStore", []ObjectID{0}, func() { p.DropStore(3) })
	step("DropStore of an empty store", nil, func() { p.DropStore(7) })
	step("DropStore of two objects' store", []ObjectID{1, 2}, func() { p.DropStore(2) })
	step("AddObject", nil, func() { p.AddObject(DataObject{ID: 3, Name: "new", SizeMB: 64, Origin: 0}) })
	if got := len(p.gen); got != 4 {
		t.Fatalf("AddObject left %d generations for 4 objects", got)
	}
	step("Shuffle", []ObjectID{0, 1, 2, 3}, func() { p.Shuffle(rand.New(rand.NewSource(1)), []cluster.StoreID{0, 1}) })
}
