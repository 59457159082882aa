package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

func key(ino int, off int64) Key {
	return Key{Kind: KindFile, Ino: layout.Ino(ino), Off: off}
}

func TestAddGet(t *testing.T) {
	c := New(4, 4096)
	b := c.Add(key(1, 0))
	if len(b.Data) != 4096 {
		t.Fatalf("block size %d", len(b.Data))
	}
	b.Data[0] = 42
	got := c.Get(key(1, 0))
	if got == nil || got.Data[0] != 42 {
		t.Fatal("Get did not return the added block")
	}
	if c.Get(key(1, 1)) != nil {
		t.Fatal("Get returned a block for a missing key")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserted != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	c := New(4, 512)
	c.Add(key(1, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	c.Add(key(1, 0))
}

func TestInvalidNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid New did not panic")
		}
	}()
	New(0, 4096)
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(3, 512)
	c.Add(key(1, 0))
	c.Add(key(2, 0))
	c.Add(key(3, 0))
	// Touch 1 so 2 becomes LRU.
	c.Get(key(1, 0))
	c.Add(key(4, 0))
	if c.Get(key(2, 0)) != nil {
		t.Fatal("LRU block 2 survived eviction")
	}
	for _, k := range []Key{key(1, 0), key(3, 0), key(4, 0)} {
		if c.Peek(k) == nil {
			t.Fatalf("block %v evicted out of order", k)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestDirtyBlocksNotEvicted(t *testing.T) {
	c := New(2, 512)
	b1 := c.Add(key(1, 0))
	c.MarkDirty(b1, 0)
	b2 := c.Add(key(2, 0))
	c.MarkDirty(b2, 0)
	c.Add(key(3, 0)) // over capacity, but nothing evictable
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dirty blocks must not be evicted)", c.Len())
	}
	if !c.Overfull() {
		t.Fatal("cache with no evictable block not reported Overfull")
	}
	c.MarkClean(b1)
	c.Add(key(4, 0)) // now b1 is evictable
	if c.Peek(key(1, 0)) != nil {
		t.Fatal("clean block not evicted when over capacity")
	}
}

func TestDirtyTracking(t *testing.T) {
	c := New(8, 512)
	b1 := c.Add(key(1, 0))
	b2 := c.Add(key(2, 0))
	c.MarkDirty(b1, sim.Time(10))
	c.MarkDirty(b2, sim.Time(20))
	// Re-dirtying keeps the original time.
	c.MarkDirty(b1, sim.Time(99))
	if b1.DirtiedAt() != sim.Time(10) {
		t.Fatalf("re-dirty changed DirtiedAt to %v", b1.DirtiedAt())
	}
	if c.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d", c.DirtyCount())
	}
	oldest, ok := c.OldestDirty()
	if !ok || oldest != sim.Time(10) {
		t.Fatalf("OldestDirty = %v, %v", oldest, ok)
	}
	dirty := c.DirtyBlocks()
	if len(dirty) != 2 || dirty[0] != b1 || dirty[1] != b2 {
		t.Fatal("DirtyBlocks not in dirtied order")
	}
	c.MarkClean(b1)
	c.MarkClean(b1) // idempotent
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount after clean = %d", c.DirtyCount())
	}
	oldest, ok = c.OldestDirty()
	if !ok || oldest != sim.Time(20) {
		t.Fatalf("OldestDirty after clean = %v, %v", oldest, ok)
	}
	c.MarkClean(b2)
	if _, ok := c.OldestDirty(); ok {
		t.Fatal("OldestDirty on all-clean cache reported a block")
	}
}

// TestMarkRelocated: the relocation tag goes only on a block that was
// clean, dirties it in place in the dirty order, and lasts until the
// block is written — so a clean block is never tagged.
func TestMarkRelocated(t *testing.T) {
	c := New(8, 512)
	moved, modified := c.Add(key(1, 0)), c.Add(key(2, 0))
	c.MarkDirty(modified, sim.Time(10))
	if !c.MarkRelocated(moved, sim.Time(20), sim.Time(3)) {
		t.Fatal("MarkRelocated refused a clean block")
	}
	if c.MarkRelocated(modified, sim.Time(20), sim.Time(3)) {
		t.Fatal("MarkRelocated tagged a block that holds newer modifications")
	}
	if age, ok := moved.Relocated(); !ok || age != 3 || !moved.Dirty() || moved.DirtiedAt() != 20 {
		t.Fatalf("relocated block: age %v tagged %v dirty %v at %v", age, ok, moved.Dirty(), moved.DirtiedAt())
	}
	if _, ok := modified.Relocated(); ok || modified.DirtiedAt() != 10 {
		t.Fatal("the modified block was tagged or re-timed")
	}
	if dirty := c.DirtyBlocks(); len(dirty) != 2 || dirty[0] != modified || dirty[1] != moved {
		t.Fatal("relocation did not queue the block behind the older dirty one")
	}
	c.MarkClean(moved)
	if _, ok := moved.Relocated(); ok || moved.Dirty() {
		t.Fatal("MarkClean left the relocation tag")
	}
	c.MarkRelocated(moved, sim.Time(30), sim.Time(4))
	c.Remove(moved.Key)
	if _, ok := moved.Relocated(); ok {
		t.Fatal("Remove left the relocation tag on the dropped block")
	}
	checkChains(t, c)
}

// TestBlockHeaderSizeClass pins the Block header inside the allocator's
// 112-byte size class. One header is allocated per inserted block, and
// the next class up is 128 bytes: padding the relocation tag into its
// own word measured +8 % host bytes per operation on lfsperf's cleaning
// workload.
func TestBlockHeaderSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Block{}); size > 112 {
		t.Fatalf("cache.Block is %d bytes, want <= 112", size)
	}
}

func TestAboveDirtyWatermark(t *testing.T) {
	c := New(10, 512)
	for i := 0; i < 6; i++ {
		c.MarkDirty(c.Add(key(i+1, 0)), 0)
	}
	if !c.AboveDirtyWatermark(0.5) {
		t.Fatal("6/10 dirty not above 0.5 watermark")
	}
	if c.AboveDirtyWatermark(0.8) {
		t.Fatal("6/10 dirty above 0.8 watermark")
	}
}

func TestRemove(t *testing.T) {
	c := New(4, 512)
	b := c.Add(key(1, 0))
	c.MarkDirty(b, 0)
	c.Remove(key(1, 0))
	if c.Len() != 0 || c.DirtyCount() != 0 {
		t.Fatal("Remove left state behind")
	}
	c.Remove(key(1, 0)) // removing a missing key is a no-op
}

func TestRemoveMatching(t *testing.T) {
	c := New(8, 512)
	for i := 0; i < 4; i++ {
		c.Add(key(1, int64(i)))
	}
	c.MarkDirty(c.Add(key(2, 0)), 0)
	n := c.RemoveMatching(func(k Key) bool { return k.Ino == 1 })
	if n != 4 || c.Len() != 1 {
		t.Fatalf("RemoveMatching removed %d, len %d", n, c.Len())
	}
	if c.Peek(key(2, 0)) == nil {
		t.Fatal("unrelated block removed")
	}
}

func TestRemoveIno(t *testing.T) {
	c := New(8, 512)
	for i := 0; i < 3; i++ {
		c.Add(key(1, int64(i)))
	}
	c.MarkDirty(c.Add(Key{Kind: KindIndirect, Ino: 1, Off: 7}), 0)
	c.MarkDirty(c.Add(key(2, 0)), 0)
	if n := c.RemoveIno(1); n != 4 || c.Len() != 1 || c.DirtyCount() != 1 {
		t.Fatalf("RemoveIno removed %d, len %d, dirty %d", n, c.Len(), c.DirtyCount())
	}
	if c.Peek(key(2, 0)) == nil {
		t.Fatal("unrelated block removed")
	}
	if n := c.RemoveIno(1); n != 0 {
		t.Fatalf("second RemoveIno removed %d", n)
	}
	checkChains(t, c)
	// The inode's number can be reused straight away.
	c.Add(key(1, 0))
	checkChains(t, c)
}

func TestRemoveInoDoesNotAllocate(t *testing.T) {
	c := New(64, 512)
	for i := 0; i < 32; i++ {
		c.Add(key(i+10, 0))
	}
	pair := []*Block{c.Add(key(1, 0)), c.Add(key(1, 1))}
	c.RemoveIno(1)
	// Re-insert the same two blocks each run, so the only work measured
	// beside RemoveIno's is linking them.
	n := testing.AllocsPerRun(100, func() {
		for _, b := range pair {
			reinsert(c, b)
		}
		if c.RemoveIno(1) != 2 {
			t.Fatal("RemoveIno missed a block")
		}
	})
	if n != 0 {
		t.Fatalf("RemoveIno: %v allocs per run, want 0", n)
	}
	checkChains(t, c)
}

// reinsert puts a removed block back under its old key on a buffer from
// the free list, without allocating a new Block.
func reinsert(c *Cache, b *Block) {
	n := len(c.free) - 1
	b.Data, c.free = c.free[n], c.free[:n]
	c.insert(b)
}

// checkChains verifies the three intrusive chains against the block
// map: the LRU chain holds every block once, the dirty chain exactly
// the dirty ones, each inode chain exactly that inode's blocks, and
// every prev pointer mirrors the next pointer before it. It also
// verifies buffer ownership: every cached block has a whole buffer, the
// free list holds at most capacity whole buffers, and no buffer is
// owned twice.
func checkChains(t *testing.T, c *Cache) {
	t.Helper()
	if len(c.free) > c.capacity {
		t.Fatalf("free list holds %d buffers, capacity %d", len(c.free), c.capacity)
	}
	owner := map[*byte]string{}
	own := func(buf []byte, who string) {
		if len(buf) != c.blockSize {
			t.Fatalf("%s has a %d-byte buffer, block size %d", who, len(buf), c.blockSize)
		}
		if prev, taken := owner[&buf[0]]; taken {
			t.Fatalf("%s shares its buffer with %s", who, prev)
		}
		owner[&buf[0]] = who
	}
	for i, buf := range c.free {
		own(buf, fmt.Sprintf("free[%d]", i))
	}
	//lfslint:allow maporder ownership holds or fails identically in any order
	for k, b := range c.blocks {
		own(b.Data, k.String())
	}
	walk := func(name string, id chainID, front, back *Block, visit func(*Block)) int {
		n := 0
		var prev *Block
		for b := front; b != nil; prev, b = b, b.links[id].next {
			if b.links[id].prev != prev {
				t.Fatalf("%s chain: %v has the wrong prev link", name, b.Key)
			}
			if c.blocks[b.Key] != b {
				t.Fatalf("%s chain: %v is not the cached block for its key", name, b.Key)
			}
			visit(b)
			if n++; n > len(c.blocks) {
				t.Fatalf("%s chain is longer than the cache", name)
			}
		}
		if back != prev {
			t.Fatalf("%s chain: back pointer is not the last block", name)
		}
		return n
	}
	if n := walk("lru", chainLRU, c.lru.front, c.lru.back, func(*Block) {}); n != len(c.blocks) {
		t.Fatalf("lru chain has %d blocks, cache %d", n, len(c.blocks))
	}
	n := walk("dirty", chainDirty, c.dirty.front, c.dirty.back, func(b *Block) {
		if !b.dirty {
			t.Fatalf("dirty chain holds clean block %v", b.Key)
		}
	})
	dirty := 0
	for _, b := range c.blocks {
		if b.dirty {
			dirty++
		}
	}
	if n != dirty || c.nDirty != dirty {
		t.Fatalf("dirty chain has %d blocks, nDirty %d, cache has %d dirty", n, c.nDirty, dirty)
	}
	total := 0
	for ino, front := range c.byIno {
		if front == nil {
			t.Fatalf("inode %d has an empty chain entry", ino)
		}
		back := front
		for back.links[chainIno].next != nil {
			back = back.links[chainIno].next
		}
		total += walk("inode", chainIno, front, back, func(b *Block) {
			if b.Key.Ino != ino {
				t.Fatalf("inode %d chain holds %v", ino, b.Key)
			}
		})
	}
	if total != len(c.blocks) {
		t.Fatalf("inode chains hold %d blocks, cache %d", total, len(c.blocks))
	}
}

// sliceModel is the cache's ordering contract written the slow,
// obvious way: recency and dirtied order as slices of keys.
type sliceModel struct {
	capacity int
	lru      []Key // front = most recent
	dirty    []Key // front = oldest dirtied
}

func without(keys []Key, k Key) []Key {
	for i, x := range keys {
		if x == k {
			return append(keys[:i:i], keys[i+1:]...)
		}
	}
	return keys
}

func contains(keys []Key, k Key) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

func (m *sliceModel) remove(k Key) {
	m.lru, m.dirty = without(m.lru, k), without(m.dirty, k)
}

// add returns the keys evicted to make room, in order.
func (m *sliceModel) add(k Key) []Key {
	var evicted []Key
	for len(m.lru)+1 > m.capacity {
		victim, found := Key{}, false
		for i := len(m.lru) - 1; i >= 0; i-- {
			x := m.lru[i]
			if contains(m.dirty, x) {
				continue
			}
			if x.Kind == KindFile {
				victim, found = x, true
				break
			}
			if !found {
				victim, found = x, true
			}
		}
		if !found {
			break
		}
		m.remove(victim)
		evicted = append(evicted, victim)
	}
	m.lru = append([]Key{k}, m.lru...)
	return evicted
}

// TestCacheMatchesSliceModel drives random operations through the
// cache and the slice model and requires the same evictions in the
// same order, the same dirtied order and the same contents — the
// behaviour the container/list implementation had — with the chains
// consistent after every step.
func TestCacheMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var evicted []Key
	DebugEvict = func(k Key) { evicted = append(evicted, k) }
	defer func() { DebugEvict, DebugPoison = nil, false }()
	for round := 0; round < 30; round++ {
		DebugPoison = round%2 == 1
		c := New(6, 16)
		m := &sliceModel{capacity: 6}
		for step := 0; step < 400; step++ {
			k := Key{Kind: Kind(rng.Intn(3)), Ino: layout.Ino(rng.Intn(5)), Off: int64(rng.Intn(3))}
			evicted = evicted[:0]
			var want []Key
			lenBefore, freeBefore := c.Len(), len(c.free)
			removal := true // the op only removes blocks
			switch op := rng.Intn(18); {
			case op < 8: // lookup, adding on a miss
				removal = false
				if b := c.Get(k); b != nil {
					m.lru = append([]Key{k}, without(m.lru, k)...)
				} else {
					// Whatever the buffer held before — a dirty block's
					// bytes included — a new block starts zeroed.
					b := c.Add(k)
					if !allBytes(b.Data, 0) {
						t.Fatalf("round %d step %d: Add(%v) returned non-zero data % x", round, step, k, b.Data)
					}
					fill(b)
					want = m.add(k)
				}
			case op < 11:
				if b := c.Peek(k); b != nil {
					c.MarkDirty(b, sim.Time(step))
					if !contains(m.dirty, k) {
						m.dirty = append(m.dirty, k)
					}
				}
			case op < 13:
				if b := c.Peek(k); b != nil {
					c.MarkClean(b)
					m.dirty = without(m.dirty, k)
				}
			case op < 14:
				c.Remove(k)
				m.remove(k)
			case op < 16:
				n := c.RemoveIno(k.Ino)
				for _, x := range append([]Key(nil), m.lru...) {
					if x.Ino == k.Ino {
						m.remove(x)
						n--
					}
				}
				if n != 0 {
					t.Fatalf("round %d step %d: RemoveIno count off by %d", round, step, n)
				}
			case op < 17:
				c.RemoveMatching(func(x Key) bool { return x.Kind == k.Kind && x.Off == k.Off })
				for _, x := range append([]Key(nil), m.lru...) {
					if x.Kind == k.Kind && x.Off == k.Off {
						m.remove(x)
					}
				}
			default:
				if rng.Intn(4) == 0 {
					c.Clear()
					m.lru, m.dirty = nil, nil
				} else {
					c.DropClean()
					for _, x := range append([]Key(nil), m.lru...) {
						if !contains(m.dirty, x) {
							m.remove(x)
						}
					}
				}
			}
			if fmt.Sprint(evicted) != fmt.Sprint(want) {
				t.Fatalf("round %d step %d: evicted %v, model %v", round, step, evicted, want)
			}
			// Remove, RemoveIno, RemoveMatching, DropClean and Clear all
			// hand their buffers to the free list, up to its bound.
			if wantFree := min(6, freeBefore+lenBefore-c.Len()); removal && len(c.free) != wantFree {
				t.Fatalf("round %d step %d: free list has %d buffers, want %d", round, step, len(c.free), wantFree)
			}
			// No block's bytes changed under it through a shared buffer.
			//lfslint:allow maporder the every-block check holds or fails identically in any order
			for _, b := range c.blocks {
				if !allBytes(b.Data, fillByte(b.Key)) {
					t.Fatalf("round %d step %d: %v holds % x, want all %#x", round, step, b.Key, b.Data, fillByte(b.Key))
				}
			}
			var lru, dirty []Key
			for b := c.lru.front; b != nil; b = b.links[chainLRU].next {
				lru = append(lru, b.Key)
			}
			for _, b := range c.DirtyBlocks() {
				dirty = append(dirty, b.Key)
			}
			if fmt.Sprint(lru) != fmt.Sprint(m.lru) || fmt.Sprint(dirty) != fmt.Sprint(m.dirty) {
				t.Fatalf("round %d step %d:\nlru   %v\nmodel %v\ndirty %v\nmodel %v", round, step, lru, m.lru, dirty, m.dirty)
			}
			checkChains(t, c)
		}
	}
}

// fillByte is the non-zero byte the model test fills k's block with.
func fillByte(k Key) byte { return byte(1 + int(k.Kind) + 3*int(k.Ino) + 15*int(k.Off)) }

func fill(b *Block) {
	for i := range b.Data {
		b.Data[i] = fillByte(b.Key)
	}
}

func allBytes(p []byte, want byte) bool {
	for _, x := range p {
		if x != want {
			return false
		}
	}
	return true
}

// TestAddRecyclesEvictedBuffer pins the steady state: once the cache is
// full, Add reuses the buffer of the block it evicts, zeroed (AddFrom:
// overwritten), allocates only the Block header, and leaves the evicted
// block without data.
func TestAddRecyclesEvictedBuffer(t *testing.T) {
	for _, poison := range []bool{false, true} {
		DebugPoison = poison
		c := New(4, 64)
		for i := 0; i < 4; i++ {
			fill(c.Add(key(1, int64(i))))
		}
		victim := c.Peek(key(1, 0))
		buf := &victim.Data[0]
		b := c.Add(key(2, 0))
		if &b.Data[0] != buf || !allBytes(b.Data, 0) {
			t.Fatalf("poison %v: Add did not return the evicted buffer zeroed", poison)
		}
		if victim.Data != nil {
			t.Fatalf("poison %v: evicted block kept its buffer", poison)
		}
		src := bytes.Repeat([]byte{0x5A}, 64)
		if b := c.AddFrom(key(2, 1), src); !bytes.Equal(b.Data, src) {
			t.Fatalf("poison %v: AddFrom holds % x", poison, b.Data)
		}
		checkChains(t, c)
		c.Clear()
		if poison && !allBytes(c.free[0], 0xDB) {
			t.Fatal("poisoned free buffer is not all 0xDB")
		}
		i := int64(10)
		if n := testing.AllocsPerRun(100, func() { c.Add(key(3, i)); i++ }); n > 1 {
			t.Fatalf("poison %v: Add after evict: %v allocs, want <= 1", poison, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.AddFrom(key(3, i), src); i++ }); n > 1 {
			t.Fatalf("poison %v: AddFrom after evict: %v allocs, want <= 1", poison, n)
		}
		checkChains(t, c)
	}
	DebugPoison = false
}

// TestAddFromRejectsPartialBlock: a short source would leave recycled
// bytes in the tail of the block.
func TestAddFromRejectsPartialBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddFrom accepted a short source")
		}
	}()
	New(4, 64).AddFrom(key(1, 0), make([]byte, 63))
}

func TestDropClean(t *testing.T) {
	c := New(8, 512)
	c.Add(key(1, 0))
	c.Add(key(2, 0))
	d := c.Add(key(3, 0))
	c.MarkDirty(d, 0)
	n := c.DropClean()
	if n != 2 {
		t.Fatalf("DropClean removed %d, want 2", n)
	}
	if c.Peek(key(3, 0)) == nil {
		t.Fatal("DropClean removed a dirty block")
	}
}

func TestClear(t *testing.T) {
	c := New(8, 512)
	c.MarkDirty(c.Add(key(1, 0)), 0)
	c.Add(key(2, 0))
	c.Clear()
	if c.Len() != 0 || c.DirtyCount() != 0 {
		t.Fatal("Clear left blocks behind")
	}
	if _, ok := c.OldestDirty(); ok {
		t.Fatal("Clear left dirty list populated")
	}
	checkChains(t, c)
	// Nothing of the old contents may be reachable through a new block.
	c.MarkDirty(c.Add(key(1, 1)), 0)
	if n := c.RemoveIno(1); n != 1 {
		t.Fatalf("RemoveIno after Clear removed %d blocks, want 1", n)
	}
	checkChains(t, c)
}

func TestKeyString(t *testing.T) {
	if key(1, 2).String() == "" {
		t.Fatal("empty Key.String")
	}
}

// Property: the cache never exceeds capacity as long as blocks stay
// clean, and never loses a dirty block.
func TestCacheInvariantsProperty(t *testing.T) {
	type op struct {
		Ino   uint8
		Off   uint8
		Dirty bool
		Clean bool
	}
	f := func(ops []op) bool {
		c := New(8, 64)
		dirtyKeys := map[Key]bool{}
		for i, o := range ops {
			k := key(int(o.Ino)%16+1, int64(o.Off)%4)
			b := c.Get(k)
			if b == nil {
				if c.Peek(k) != nil {
					return false
				}
				b = c.Add(k)
			}
			switch {
			case o.Dirty:
				c.MarkDirty(b, sim.Time(i))
				dirtyKeys[k] = true
			case o.Clean:
				c.MarkClean(b)
				delete(dirtyKeys, k)
			}
			// Invariant: every dirty key is still present.
			//lfslint:allow maporder Peek is read-only and the every-key invariant holds or fails identically in any order
			for dk := range dirtyKeys {
				if c.Peek(dk) == nil {
					return false
				}
			}
			// Invariant: size never exceeds capacity + dirty overflow.
			if c.Len() > c.Capacity()+len(dirtyKeys) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionStress(t *testing.T) {
	c := New(16, 512)
	for i := 0; i < 1000; i++ {
		k := key(i%50+1, int64(i%7))
		if c.Get(k) == nil {
			c.Add(k)
		}
	}
	if c.Len() > 16 {
		t.Fatalf("cache grew to %d blocks, capacity 16", c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions under churn")
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(1024, 4096)
	for i := 0; i < 1024; i++ {
		c.Add(key(1, int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(key(1, int64(i%1024)))
	}
}

func BenchmarkCacheChurn(b *testing.B) {
	c := New(256, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := key(i%1000+1, 0)
		if c.Get(k) == nil {
			c.Add(k)
		}
	}
}

// BenchmarkCacheRemoveIno is unlink's cache cost in a full paper-sized
// cache: add one block for a file, drop the file's blocks.
func BenchmarkCacheRemoveIno(b *testing.B) {
	c := New(3840, 4096)
	for i := 0; i < 3839; i++ {
		c.Add(key(i+2, 0))
	}
	victim := c.Add(key(1, 0))
	c.RemoveIno(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reinsert(c, victim)
		c.RemoveIno(1)
	}
}

// BenchmarkAddEvict is the read-miss steady state: every Add evicts the
// LRU block and takes over its buffer.
func BenchmarkAddEvict(b *testing.B) {
	c := New(3840, 4096)
	for i := 0; i < 3840; i++ {
		c.Add(key(1, int64(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(key(2, int64(i)))
	}
}

func ExampleCache() {
	c := New(128, 4096)
	b := c.Add(Key{Kind: KindFile, Ino: 1, Off: 0})
	copy(b.Data, "hello")
	c.MarkDirty(b, 0)
	fmt.Println(c.DirtyCount())
	// Output: 1
}
