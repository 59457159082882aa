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

// TestBlockHeaderSizeClass pins the Block header at 104 bytes and a slab
// of them, with the allocator's 8-byte header on a pointerful object,
// inside the 8 192-byte size class: a word more per header, or a slab
// that spills into the next class, is +8 % host bytes per cached block.
func TestBlockHeaderSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Block{}); size > 104 {
		t.Fatalf("cache.Block is %d bytes, want <= 104", size)
	}
	if size := slabLen*unsafe.Sizeof(Block{}) + 8; size > 8192 {
		t.Fatalf("a slab of %d headers is %d bytes, want <= 8192", slabLen, size)
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

// cached returns every block in the index, in slot order.
func cached(c *Cache) []*Block {
	var all []*Block
	for _, b := range c.blocks.slots {
		if b != nil {
			all = append(all, b)
		}
	}
	return all
}

// checkChains verifies the index and the three intrusive chains against
// each other, both ways: the index holds exactly Len() blocks in a table
// at most half full, each found again under its own key; the LRU chain
// holds every cached block once — so after a removal every remaining
// key is still found, which a probe run broken by the removal would
// fail — the dirty chain exactly the dirty ones, each inode chain
// exactly that inode's blocks, and every prev pointer mirrors the next
// pointer before it. It also verifies buffer ownership: every cached
// block has a whole buffer, the free list holds at most capacity whole
// buffers, and no buffer is owned twice.
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
	all := cached(c)
	if len(all) != c.Len() || 2*len(all) > len(c.blocks.slots) {
		t.Fatalf("index holds %d blocks in %d slots, Len() %d", len(all), len(c.blocks.slots), c.Len())
	}
	dirty := 0
	for _, b := range all {
		own(b.Data, b.Key.String())
		if c.blocks.get(b.Key) != b {
			t.Fatalf("index: %v is not found under its key", b.Key)
		}
		if b.dirty {
			dirty++
		}
	}
	walk := func(name string, id chainID, front, back *Block, visit func(*Block)) int {
		n := 0
		var prev *Block
		for b := front; b != nil; prev, b = b, b.links[id].next {
			if b.links[id].prev != prev {
				t.Fatalf("%s chain: %v has the wrong prev link", name, b.Key)
			}
			if c.blocks.get(b.Key) != b {
				t.Fatalf("%s chain: %v is not the cached block for its key", name, b.Key)
			}
			visit(b)
			if n++; n > c.Len() {
				t.Fatalf("%s chain is longer than the cache", name)
			}
		}
		if back != prev {
			t.Fatalf("%s chain: back pointer is not the last block", name)
		}
		return n
	}
	if n := walk("lru", chainLRU, c.lru.front, c.lru.back, func(*Block) {}); n != c.Len() {
		t.Fatalf("lru chain has %d blocks, cache %d", n, c.Len())
	}
	n := walk("dirty", chainDirty, c.dirty.front, c.dirty.back, func(b *Block) {
		if !b.dirty {
			t.Fatalf("dirty chain holds clean block %v", b.Key)
		}
	})
	if n != dirty || c.nDirty != dirty {
		t.Fatalf("dirty chain has %d blocks, nDirty %d, cache has %d dirty", n, c.nDirty, dirty)
	}
	total := 0
	for ino, front := range c.byIno {
		if front == nil {
			continue
		}
		back := front
		for back.links[chainIno].next != nil {
			back = back.links[chainIno].next
		}
		total += walk("inode", chainIno, front, back, func(b *Block) {
			if b.Key.Ino != layout.Ino(ino) {
				t.Fatalf("inode %d chain holds %v", ino, b.Key)
			}
		})
	}
	if total != c.Len() {
		t.Fatalf("inode chains hold %d blocks, cache %d", total, c.Len())
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
			for _, b := range cached(c) {
				if !allBytes(b.Data, fillByte(b.Key)) {
					t.Fatalf("round %d step %d: %v holds % x, want all %#x", round, step, b.Key, b.Data, fillByte(b.Key))
				}
			}
			var lru, dirty []Key
			for b := c.lru.front; b != nil; b = b.links[chainLRU].next {
				lru = append(lru, b.Key)
			}
			inoDirty := make(map[layout.Ino]bool) // read off the dirty list, as core used to
			for _, b := range c.DirtyBlocks() {
				dirty = append(dirty, b.Key)
				inoDirty[b.Key.Ino] = true
			}
			for _, ino := range []layout.Ino{0, 1, 2, 3, 4, 1 << 20} { // the last is past byIno
				if got := c.InoDirty(ino); got != inoDirty[ino] {
					t.Fatalf("round %d step %d: InoDirty(%d) = %v, the dirty list says %v", round, step, ino, got, inoDirty[ino])
				}
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
// overwritten), takes its header from a slab — one allocation per
// slabLen insertions and none between — and leaves the evicted block
// without data for good: its header is never another block's.
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
		if n := testing.AllocsPerRun(100, func() { c.Add(key(3, i)); i++ }); n != 0 {
			t.Fatalf("poison %v: Add after evict: %v allocs, want 0", poison, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.AddFrom(key(3, i), src); i++ }); n != 0 {
			t.Fatalf("poison %v: AddFrom after evict: %v allocs, want 0", poison, n)
		}
		const adds = 10000
		n := testing.AllocsPerRun(1, func() {
			for end := i + adds; i < end; i++ {
				fill(c.Add(key(3, i)))
			}
		})
		// adds/slabLen+1 slabs at most; the rest is room for an object
		// the runtime allocates on its own account meanwhile.
		if limit := float64(adds/slabLen + 4); n > limit {
			t.Fatalf("poison %v: %d Adds on a full cache: %v allocs, want <= %v", poison, adds, n, limit)
		}
		if victim.Data != nil || victim.Key != key(1, 0) {
			t.Fatalf("poison %v: the evicted block's header was given to %v", poison, victim.Key)
		}
		for _, b := range cached(c) {
			if b == victim {
				t.Fatalf("poison %v: the evicted block's header is cached again", poison)
			}
		}
		checkChains(t, c)
	}
	DebugPoison = false
}

// TestAddZeroesOnlyWhatNeedsIt: a first-fill buffer comes zeroed from a
// fresh chunk and is not cleared again; a recycled one is, poisoned or
// not.
func TestAddZeroesOnlyWhatNeedsIt(t *testing.T) {
	defer func() { DebugPoison = false }()
	for _, poison := range []bool{false, true} {
		DebugPoison = poison
		c := New(2, 64)
		if _, zeroed := c.add(key(1, 0)); !zeroed {
			t.Fatal("a buffer made for this Add was not reported zeroed")
		}
		fill(c.Peek(key(1, 0)))
		c.Remove(key(1, 0))
		if _, zeroed := c.add(key(1, 1)); zeroed {
			t.Fatal("a recycled buffer was reported zeroed")
		}
		if b := c.Add(key(1, 2)); !allBytes(b.Data, 0) {
			t.Fatal("first-fill Add returned non-zero data")
		}
		fill(c.Peek(key(1, 2)))
		c.Remove(key(1, 2))
		if b := c.Add(key(1, 3)); !allBytes(b.Data, 0) {
			t.Fatalf("poison %v: recycled Add returned % x", poison, b.Data)
		}
	}
}

// TestFirstFillChunks: first-fill buffers are carved side by side from
// one allocation per chunkBlocks of them, each capped at one block, so
// an append through one copies out instead of writing into the next.
func TestFirstFillChunks(t *testing.T) {
	c := New(2*chunkBlocks, 64)
	var blocks []*Block
	for j := range 2 * chunkBlocks {
		blocks = append(blocks, c.Add(key(1, int64(j))))
	}
	for j, b := range blocks {
		if len(b.Data) != 64 || cap(b.Data) != 64 {
			t.Fatalf("block %d: len %d cap %d, want 64 and 64", j, len(b.Data), cap(b.Data))
		}
		gap := uintptr(unsafe.Pointer(&b.Data[0])) - uintptr(unsafe.Pointer(&blocks[j/chunkBlocks*chunkBlocks].Data[0]))
		if gap != uintptr(j%chunkBlocks*64) {
			t.Fatalf("block %d lies %d bytes into its chunk, want %d", j, gap, j%chunkBlocks*64)
		}
	}
	if grown := append(blocks[0].Data, 0xFF); &grown[0] == &blocks[0].Data[0] || blocks[1].Data[0] != 0 {
		t.Fatal("an append through a first-fill buffer reached its neighbour")
	}
}

// homedAt returns n distinct keys whose probe runs start at slot home of
// c's index, found by brute force.
func homedAt(c *Cache, home, n int) []Key {
	var keys []Key
	for off := int64(0); len(keys) < n; off++ {
		if k := key(int(off%7)+1, off); c.blocks.home(k) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// permutations calls visit with every ordering of 0..n-1.
func permutations(n int, visit func([]int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(int)
	rec = func(i int) {
		if i == n {
			visit(perm)
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
}

// TestIndexCollidingKeys is backward-shift deletion where it can go
// wrong: three keys homed at one slot and two at the next share one
// probe run, added in every order and removed in every order, with the
// run in the middle of the table, ending at its last slot, and wrapped
// around it. checkChains finds every remaining key after every step.
func TestIndexCollidingKeys(t *testing.T) {
	c := New(5, 16)
	slots := len(c.blocks.slots)
	for _, home := range []int{3, slots - 4, slots - 2, slots - 1} {
		keys := append(homedAt(c, home, 3), homedAt(c, (home+1)%slots, 2)...)
		permutations(len(keys), func(in []int) {
			in = append([]int(nil), in...)
			permutations(len(keys), func(out []int) {
				for _, i := range in {
					c.Add(keys[i])
				}
				checkChains(t, c)
				for n, i := range out {
					c.Remove(keys[i])
					if c.Peek(keys[i]) != nil || c.Len() != len(keys)-n-1 {
						t.Fatalf("home %d, added %v, removed %v: %v still found", home, in, out[:n+1], keys[i])
					}
					checkChains(t, c)
				}
			})
		})
		if len(c.blocks.slots) != slots {
			t.Fatalf("a table for %d blocks grew from %d to %d slots under %d", c.Capacity(), slots, len(c.blocks.slots), len(keys))
		}
	}
}

// TestIndexGrowsWithDirtyOverflow: dirty blocks are never evicted, so an
// all-dirty cache outgrows its capacity and the index its table. Every
// key is found while it grows to three times capacity, and while the
// blocks are cleaned and evicted back down to it.
func TestIndexGrowsWithDirtyOverflow(t *testing.T) {
	const capacity = 50
	c := New(capacity, 16)
	slots := len(c.blocks.slots)
	var keys []Key
	found := func(when string) {
		t.Helper()
		for _, k := range keys {
			if b := c.Peek(k); b == nil || b.Key != k || !allBytes(b.Data, fillByte(k)) {
				t.Fatalf("%s, %d blocks: %v not found intact", when, c.Len(), k)
			}
		}
		checkChains(t, c)
	}
	for i := 0; i < 3*capacity; i++ {
		k := Key{Kind: Kind(i % 3), Ino: layout.Ino(i % 11), Off: int64(i)}
		b := c.Add(k)
		fill(b)
		c.MarkDirty(b, sim.Time(i))
		keys = append(keys, k)
		found("growing")
	}
	if len(c.blocks.slots) < 2*len(keys) || len(c.blocks.slots) == slots {
		t.Fatalf("%d blocks in %d slots (started at %d): the table did not double", len(keys), len(c.blocks.slots), slots)
	}
	// Clean one block at a time: the next Add evicts exactly that one.
	var evicted []Key
	DebugEvict = func(k Key) { evicted = append(evicted, k) }
	defer func() { DebugEvict = nil }()
	extra := key(20, 0)
	for len(keys) > capacity {
		c.MarkClean(c.Peek(keys[0]))
		c.Add(extra)
		c.Remove(extra)
		if len(evicted) != 1 || evicted[0] != keys[0] || c.Peek(keys[0]) != nil {
			t.Fatalf("cleaned %v with %d blocks cached, evicted %v", keys[0], c.Len(), evicted)
		}
		keys, evicted = keys[1:], evicted[:0]
		found("shrinking")
	}
	if c.Len() != capacity {
		t.Fatalf("cache holds %d blocks after the overflow drained, capacity %d", c.Len(), capacity)
	}
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
