// Package cache implements the file/buffer cache shared by both file
// systems. The paper assigns the cache two roles: absorbing reads (so
// that disk traffic is write-dominated) and, for LFS, acting as the
// write buffer that accumulates many small modifications until they
// can be written as one large sequential transfer ("speed matching
// between the CPU and disk subsystem", §4.1).
//
// The cache is a fixed-capacity block store keyed by (namespace,
// inode, offset), with LRU eviction of clean blocks, explicit dirty
// tracking in dirtied order (for the 30-second age write-back policy
// of §4.3.5). Eviction never touches dirty blocks: write-back policy
// belongs to the owning file system, which consults DirtyCount,
// Overfull, and OldestDirty after each operation.
package cache

import (
	"fmt"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

// WritebackAge is the delayed write-back threshold both file systems
// apply: a dirty block older than this is written at the next
// operation (UNIX's classic 30 seconds, §4.3.5).
const WritebackAge = 30 * sim.Second

// Kind is the namespace of a cache key, so different block spaces
// (file data, FFS disk blocks, LFS inode-map blocks) cannot collide.
type Kind uint8

// Key namespaces used across the repository.
const (
	// KindFile is file and directory data, keyed by (ino, lbn).
	KindFile Kind = iota
	// KindIndirect is indirect pointer blocks, keyed by (ino, lbn
	// of the first block the indirect block maps, level encoded by
	// the owner).
	KindIndirect
	// KindMeta is file-system-global metadata keyed by an
	// FS-defined offset (FFS: disk block address; LFS: inode map
	// block index).
	KindMeta
)

// Key identifies a cached block.
type Key struct {
	Kind Kind
	Ino  layout.Ino
	Off  int64
}

// String formats the key for diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("{kind=%d ino=%d off=%d}", k.Kind, k.Ino, k.Off)
}

// Block is one cached block. Data has the cache's block size while the
// block is cached; the cache owns the buffer and takes it back (leaving
// Data nil) when the block is removed, so a clean *Block must
// not be held across an Add, which may evict it. The header itself is
// never given to another block, so a holder that kept it anyway finds
// Data nil for good.
type Block struct {
	Key  Key
	Data []byte

	dirty bool
	// DirEnd is vfs.Dirs's: the offset in Data where the entries of the
	// directory block it last validated or wrote there end, which names
	// that directory block too; 0 until then (as every header starts).
	DirEnd    int32
	dirtiedAt sim.Time

	// links are the block's positions in the cache's three intrusive
	// chains, indexed by chainID.
	links [numChains]link
}

// chainID names one of the chains a cached block is linked on.
type chainID int

const (
	chainLRU   chainID = iota // every block; front = most recently used
	chainDirty                // dirty blocks; front = oldest dirtied
	chainIno                  // blocks of one inode, any kind; unordered
	numChains
)

// link is a block's neighbours on one chain (nil at either end).
type link struct{ prev, next *Block }

// chain is a doubly linked list threaded through Block.links[id].
type chain struct {
	id          chainID
	front, back *Block
}

func (l *chain) pushFront(b *Block) {
	b.links[l.id] = link{next: l.front}
	if l.front != nil {
		l.front.links[l.id].prev = b
	} else {
		l.back = b
	}
	l.front = b
}

func (l *chain) pushBack(b *Block) {
	b.links[l.id] = link{prev: l.back}
	if l.back != nil {
		l.back.links[l.id].next = b
	} else {
		l.front = b
	}
	l.back = b
}

func (l *chain) remove(b *Block) {
	k := b.links[l.id]
	if k.prev != nil {
		k.prev.links[l.id].next = k.next
	} else {
		l.front = k.next
	}
	if k.next != nil {
		k.next.links[l.id].prev = k.prev
	} else {
		l.back = k.prev
	}
	b.links[l.id] = link{}
}

// Dirty reports whether the block has unwritten modifications.
func (b *Block) Dirty() bool { return b.dirty }

// DirtiedAt returns when the block was first dirtied (valid only while
// Dirty).
func (b *Block) DirtiedAt() sim.Time { return b.dirtiedAt }

// Stats counts cache activity.
type Stats struct {
	Hits, Misses int64
	Evictions    int64
	Inserted     int64
}

// HitRate returns the fraction of lookups served from the cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// DebugEvict, when non-nil, is called with every evicted key (test
// instrumentation only).
var DebugEvict func(Key)

// DebugPoison, when set, scribbles 0xDB over every buffer entering the
// free list, so a read through a stale *Block or an AddFrom caller that
// does not overwrite the whole block shows up as wrong bytes (test
// instrumentation only). The LFS cleaner treats the memory it takes
// victims into the same way, through Poison.
var DebugPoison bool

// Poison scribbles over p, a buffer its owner is done with, when
// DebugPoison is set.
func Poison(p []byte) {
	if DebugPoison {
		for i := range p {
			p[i] = 0xDB
		}
	}
}

// slabLen is how many Block headers are allocated at once: 78 × 104 B =
// 8 112 B, plus the allocator's 8-byte header on a large object with
// pointers, is 8 120 B — the 8 192 B size class, 105.0 B per block
// against the 112 B a header allocated alone costs. One more spills
// into the 9 472 B class, and 128 (13 312 + 8) into the 13 568 B one at
// 106 B per block.
const slabLen = 78

// chunkBlocks is how many first-fill buffers one allocation holds.
const chunkBlocks = 16

// Cache is a fixed-capacity block cache. Not safe for concurrent use;
// the owning file system serialises access.
type Cache struct {
	blockSize int
	capacity  int

	blocks index
	lru    chain
	dirty  chain
	nDirty int
	// byIno holds the front block of each inode's chain, indexed by inode
	// number, so unlink can drop a file's blocks without scanning the
	// whole cache.
	byIno []*Block
	// free holds the buffers of removed blocks for the next Add, at most
	// capacity of them, so a cache at steady state allocates no data.
	free [][]byte
	// slab is what is left of the headers allocated last. Headers are
	// carved off it and never returned: a free list of them would hand a
	// stale holder of a removed block another block's bytes where today
	// it finds a nil slice.
	slab []Block
	// chunk is what is left of the buffer memory allocated last, carved
	// into buffers capped at one block so no append reaches a neighbour.
	chunk []byte

	stats Stats
}

// New returns an empty cache of capacity blocks, each blockSize bytes.
func New(capacity, blockSize int) *Cache {
	if capacity <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("cache: invalid capacity %d or block size %d", capacity, blockSize))
	}
	return &Cache{
		blockSize: blockSize,
		capacity:  capacity,
		blocks:    newIndex(capacity),
		lru:       chain{id: chainLRU},
		dirty:     chain{id: chainDirty},
	}
}

// BlockSize returns the size of every cached block.
func (c *Cache) BlockSize() int { return c.blockSize }

// Capacity returns the cache capacity in blocks.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return c.blocks.n }

// DirtyCount returns the number of dirty blocks.
func (c *Cache) DirtyCount() int { return c.nDirty }

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Get returns the cached block for k, or nil. A hit refreshes the
// block's LRU position.
func (c *Cache) Get(k Key) *Block {
	b := c.blocks.get(k)
	if b == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	if c.lru.front != b {
		c.lru.remove(b)
		c.lru.pushFront(b)
	}
	return b
}

// Peek returns the cached block for k without touching LRU order or
// statistics; used by write-back scans.
func (c *Cache) Peek(k Key) *Block {
	return c.blocks.get(k)
}

// Add inserts a zeroed block for k, evicting clean LRU blocks
// as needed. Adding an existing key panics — the caller must Get first.
func (c *Cache) Add(k Key) *Block {
	b, zeroed := c.add(k)
	if !zeroed {
		clear(b.Data)
	}
	return b
}

// AddFrom is Add for a caller that has the block's whole contents in
// hand: src, exactly one block long, is copied in, so a recycled buffer
// needs no clearing first.
func (c *Cache) AddFrom(k Key, src []byte) *Block {
	if len(src) != c.blockSize {
		panic(fmt.Sprintf("cache: AddFrom of %d bytes, block size %d", len(src), c.blockSize))
	}
	b, _ := c.add(k)
	copy(b.Data, src)
	return b
}

// add inserts a block for k on a buffer from the free list, contents
// stale, or on a new one when the list is empty, and reports whether
// the buffer is known to be zero: only one made in this call is.
func (c *Cache) add(k Key) (b *Block, zeroed bool) {
	if c.blocks.get(k) != nil {
		panic(fmt.Sprintf("cache: Add of existing key %v", k))
	}
	c.evictFor(1)
	if len(c.slab) == 0 {
		c.slab = make([]Block, slabLen)
	}
	b, c.slab = &c.slab[0], c.slab[1:]
	b.Key = k
	if n := len(c.free) - 1; n >= 0 {
		b.Data, c.free = c.free[n], c.free[:n]
	} else {
		if len(c.chunk) == 0 {
			c.chunk = make([]byte, chunkBlocks*c.blockSize)
		}
		b.Data, c.chunk, zeroed = c.chunk[:c.blockSize:c.blockSize], c.chunk[c.blockSize:], true
	}
	c.insert(b)
	c.stats.Inserted++
	return b, zeroed
}

// insert links b into the index, the LRU chain (as most recent) and its
// inode's chain.
func (c *Cache) insert(b *Block) {
	c.blocks.put(b)
	c.lru.pushFront(b)
	c.linkIno(b)
}

// evictFor evicts clean LRU blocks until there is room for n
// more blocks or no evictable block remains.
func (c *Cache) evictFor(n int) {
	for c.blocks.n+n > c.capacity {
		victim := c.evictable()
		if victim == nil {
			return // over capacity: the FS must write back
		}
		if DebugEvict != nil {
			DebugEvict(victim.Key)
		}
		c.remove(victim)
		c.stats.Evictions++
	}
}

// evictable returns the least recently used clean block,
// preferring file data over metadata (indirect and meta blocks):
// metadata is tiny, reloading it stalls behind queued segment writes,
// and real buffer caches gave it priority for the same reason.
func (c *Cache) evictable() *Block {
	var meta *Block
	for b := c.lru.back; b != nil; b = b.links[chainLRU].prev {
		if b.dirty {
			continue
		}
		if b.Key.Kind == KindFile {
			return b
		}
		if meta == nil {
			meta = b
		}
	}
	return meta
}

// Overfull reports whether unevictable (dirty) blocks fill the whole
// capacity, or the cache exceeds capacity with nothing left to evict —
// the condition that forces a write-back (the "cache full" trigger of
// §4.3.5).
func (c *Cache) Overfull() bool {
	if c.nDirty >= c.capacity {
		return true
	}
	return c.blocks.n > c.capacity && c.evictable() == nil
}

// AboveDirtyWatermark reports whether dirty blocks exceed the given
// fraction of capacity.
func (c *Cache) AboveDirtyWatermark(frac float64) bool {
	return float64(c.nDirty) > frac*float64(c.capacity)
}

// MarkDirty records a modification to b at the given time. Re-dirtying
// keeps the original dirtied time, matching delayed write-back
// semantics (age is measured from first modification).
func (c *Cache) MarkDirty(b *Block, now sim.Time) {
	if b.dirty {
		return
	}
	b.dirty = true
	b.dirtiedAt = now
	c.dirty.pushBack(b)
	c.nDirty++
}

// MarkClean records that b has been written to disk.
func (c *Cache) MarkClean(b *Block) {
	if !b.dirty {
		return
	}
	b.dirty = false
	c.dirty.remove(b)
	c.nDirty--
}

// Remove drops the block for k from the cache, dirty or not. Dropping
// a dirty block discards its modifications (used by truncate/unlink).
func (c *Cache) Remove(k Key) {
	if b := c.blocks.get(k); b != nil {
		c.remove(b)
	}
}

// remove unlinks b from all structures and takes its buffer back.
func (c *Cache) remove(b *Block) {
	c.blocks.del(b)
	c.lru.remove(b)
	c.MarkClean(b)
	c.unlinkIno(b)
	c.recycle(b)
}

// recycle moves b's buffer to the free list (or drops it when the list
// is full) and detaches it from b, so a stale holder of b fails on a nil
// slice instead of reading another block's bytes.
func (c *Cache) recycle(b *Block) {
	if len(c.free) < c.capacity {
		Poison(b.Data)
		c.free = append(c.free, b.Data)
	}
	b.Data = nil
}

// linkIno puts b at the front of its inode's chain, growing byIno (by
// doubling) to reach an inode number it has not seen.
func (c *Cache) linkIno(b *Block) {
	ino := int(b.Key.Ino)
	if ino >= len(c.byIno) {
		n := max(2*len(c.byIno), ino+1, 64)
		c.byIno = append(make([]*Block, 0, n), c.byIno...)[:n]
	}
	front := c.byIno[ino]
	b.links[chainIno] = link{next: front}
	if front != nil {
		front.links[chainIno].prev = b
	}
	c.byIno[ino] = b
}

// unlinkIno takes b off its inode's chain.
func (c *Cache) unlinkIno(b *Block) {
	k := b.links[chainIno]
	if k.prev != nil {
		k.prev.links[chainIno].next = k.next
	} else {
		c.byIno[b.Key.Ino] = k.next
	}
	if k.next != nil {
		k.next.links[chainIno].prev = k.prev
	}
	b.links[chainIno] = link{}
}

// RemoveIno drops every block of the inode — file data, indirect and
// anything else keyed by it — discarding dirty contents; it returns
// the number removed. The cost is the inode's own block count, not the
// cache's.
func (c *Cache) RemoveIno(ino layout.Ino) int {
	if int(ino) >= len(c.byIno) {
		return 0
	}
	n := 0
	for b := c.byIno[ino]; b != nil; n++ {
		next := b.links[chainIno].next
		c.remove(b)
		b = next
	}
	return n
}

// InoDirty reports whether any block keyed by the inode is dirty, at
// the cost of the inode's own block count.
func (c *Cache) InoDirty(ino layout.Ino) bool {
	if int(ino) >= len(c.byIno) {
		return false
	}
	for b := c.byIno[ino]; b != nil; b = b.links[chainIno].next {
		if b.dirty {
			return true
		}
	}
	return false
}

// RemoveMatching drops every block whose key satisfies pred,
// discarding dirty contents; it returns the number removed.
func (c *Cache) RemoveMatching(pred func(Key) bool) int {
	return c.removeWhere(func(b *Block) bool { return pred(b.Key) })
}

// removeWhere walks the LRU chain, most recent first, and removes every
// block that satisfies pred; it returns the number removed.
func (c *Cache) removeWhere(pred func(*Block) bool) int {
	n := 0
	for b := c.lru.front; b != nil; {
		next := b.links[chainLRU].next
		if pred(b) {
			c.remove(b)
			n++
		}
		b = next
	}
	return n
}

// DropClean evicts every clean block, simulating the
// paper's "flush the file cache" step between benchmark phases.
func (c *Cache) DropClean() int {
	n := c.removeWhere(func(b *Block) bool { return !b.dirty })
	c.stats.Evictions += int64(n)
	return n
}

// DirtyBlocks returns the dirty blocks in dirtied order (oldest
// first). The slice is a snapshot; callers may MarkClean entries while
// iterating it.
func (c *Cache) DirtyBlocks() []*Block {
	out := make([]*Block, 0, c.nDirty)
	for b := c.NextDirty(nil); b != nil; b = c.NextDirty(b) {
		out = append(out, b)
	}
	return out
}

// NextDirty walks the dirty blocks in dirtied order without a snapshot:
// it returns the one after b, the oldest when b is nil, and nil at the
// end. The walk must not MarkClean or MarkDirty on its way.
func (c *Cache) NextDirty(b *Block) *Block {
	if b == nil {
		return c.dirty.front
	}
	return b.links[chainDirty].next
}

// OldestDirty returns the dirtied time of the oldest dirty block.
func (c *Cache) OldestDirty() (sim.Time, bool) {
	if c.dirty.front == nil {
		return 0, false
	}
	return c.dirty.front.dirtiedAt, true
}

// Clear drops everything, including dirty blocks — the crash
// primitive: a machine crash loses exactly the cache contents.
func (c *Cache) Clear() {
	c.removeWhere(func(*Block) bool { return true })
}
