package core

import (
	"fmt"
	"math/bits"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// inodesPerBlock returns the inode records packed into one FS block.
func (fs *FS) inodesPerBlock() int { return fs.cfg.BlockSize / layout.InodeSize }

// inodesPerSector is how many inode records fit in one sector.
const inodesPerSector = 512 / layout.InodeSize

// dataKey returns the cache key of data block lbn of ino.
func dataKey(ino layout.Ino, lbn int64) cache.Key {
	return cache.Key{Kind: cache.KindFile, Ino: ino, Off: lbn}
}

// indKey returns the cache key of an indirect block.
func indKey(ino layout.Ino, id int64) cache.Key {
	return cache.Key{Kind: cache.KindIndirect, Ino: ino, Off: id}
}

// inodeCacheLimit bounds the in-core inode table; clean inodes beyond
// it are dropped (they can always be refetched through the imap).
const inodeCacheLimit = 16384

// inodeTable is the in-core inode table and the queue of inodes dirty
// for the next segment write. Like the inode map it is addressed by
// inode number — pages and bitmaps, not hash maps: the cleaner and the
// segment writer consult it once per live block, and walking either in
// index order is the ascending order the deterministic timeline needs.
// Records live by value at their number, 64 to a page that is never
// moved or freed, so a *layout.Inode from the table stays valid for the
// life of the FS. Eviction forgets that a record is current, never the
// record: an operation still holding one that it dirties keeps it.
type inodeTable struct {
	max    layout.Ino
	pages  []inodePage // index = ino/64
	n      int         // current records
	nDirty int
}

// inodePage holds the records of 64 consecutive inode numbers; bit i of
// each word is about record i.
type inodePage struct {
	recs    *[64]layout.Inode // nil until one of the numbers is installed
	current uint64            // in core: get returns the record
	dirty   uint64            // queued for the next segment write
}

// page returns the page covering ino and ino's bit in its words, or nil
// when the table has not grown that far.
func (t *inodeTable) page(ino layout.Ino) (*inodePage, uint64) {
	if p := int(ino / 64); p < len(t.pages) {
		return &t.pages[p], 1 << (ino % 64)
	}
	return nil, 0
}

// setBit turns bit of *w on or off, keeping *count in step.
func setBit(w *uint64, count *int, bit uint64, on bool) {
	switch had := *w&bit != 0; {
	case on && !had:
		*w, *count = *w|bit, *count+1
	case had && !on:
		*w, *count = *w&^bit, *count-1
	}
}

// get returns the in-core inode, or nil.
func (t *inodeTable) get(ino layout.Ino) *layout.Inode {
	if pg, bit := t.page(ino); pg != nil && pg.current&bit != 0 {
		return &pg.recs[ino%64]
	}
	return nil
}

// install copies rec in as the in-core record of ino (at most max) and
// returns where it lives.
func (t *inodeTable) install(ino layout.Ino, rec layout.Inode) *layout.Inode {
	if p := int(ino / 64); p >= len(t.pages) {
		n := min(max(2*len(t.pages), p+1), int(t.max/64)+1)
		t.pages = append(make([]inodePage, 0, n), t.pages...)[:n]
	}
	pg, bit := t.page(ino)
	if pg.recs == nil {
		pg.recs = new([64]layout.Inode)
	}
	pg.recs[ino%64] = rec
	setBit(&pg.current, &t.n, bit, true)
	return &pg.recs[ino%64]
}

// drop forgets ino, dirty or not (unlink). Under cache.DebugPoison the
// record is scribbled over with 0xDB, so a holder that outlived the
// unlink reads nonsense rather than a plausible file.
func (t *inodeTable) drop(ino layout.Ino) {
	if in := t.get(ino); in != nil {
		pg, bit := t.page(ino)
		setBit(&pg.dirty, &t.nDirty, bit, false)
		setBit(&pg.current, &t.n, bit, false)
		if cache.DebugPoison {
			const x = 0xDBDBDBDB
			*in = layout.Inode{Ino: x, Mode: x >> 16, Nlink: x >> 16, Size: x<<32 | x, Mtime: x, Ctime: x,
				Direct: [layout.NDirect]layout.DiskAddr{x, x, x, x, x, x, x, x, x, x, x, x}, Indirect: x, DoubleIndirect: x, Gen: x}
		}
	}
}

// isDirty reports whether ino is queued for the next segment write.
func (t *inodeTable) isDirty(ino layout.Ino) bool {
	pg, bit := t.page(ino)
	return pg != nil && pg.dirty&bit != 0
}

// setDirty queues an installed inode for the next segment write, making
// it current again if it was evicted, or takes it off the queue.
func (t *inodeTable) setDirty(ino layout.Ino, dirty bool) {
	pg, bit := t.page(ino)
	setBit(&pg.dirty, &t.nDirty, bit, dirty)
	if dirty {
		setBit(&pg.current, &t.n, bit, true)
	}
}

// appendDirty appends the queued inode numbers to dst in ascending order.
func (t *inodeTable) appendDirty(dst []layout.Ino) []layout.Ino {
	for p, pg := range t.pages {
		for w := pg.dirty; w != 0; w &= w - 1 {
			dst = append(dst, layout.Ino(p*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// dropClean forgets clean inodes in ascending order until fewer than
// keep remain in core; dirty ones always stay. Only the current bits
// change: a record stays where it is for whoever holds it.
func (t *inodeTable) dropClean(keep int) {
	for p := 0; p < len(t.pages) && t.n >= keep; p++ {
		pg := &t.pages[p]
		for w := pg.current &^ pg.dirty; w != 0 && t.n >= keep; w &= w - 1 {
			pg.current &^= w & -w
			t.n--
		}
	}
}

// getInode returns the in-core inode for ino, fetching it through the
// inode map when absent (§4.2.1: "except for the address lookup using
// the inode map, the file reading algorithm of LFS is identical to
// UNIX").
func (fs *FS) getInode(ino layout.Ino) (*layout.Inode, error) {
	if in := fs.inodes.get(ino); in != nil {
		return in, nil
	}
	if ino < 1 || ino > fs.imap.maxIno() {
		return nil, fmt.Errorf("%w: inode %d out of range", vfs.ErrInvalid, ino)
	}
	e := fs.imap.peek(ino)
	if !e.Allocated {
		return nil, fmt.Errorf("%w: inode %d is not allocated", vfs.ErrNotExist, ino)
	}
	if e.Addr.IsNil() {
		return nil, fmt.Errorf("lfs: allocated inode %d has no disk address", ino)
	}
	// Inodes were logged in whole inode blocks, or a commit's few in the
	// tail of its summary block; read the containing block and
	// batch-cache every inode in it whose inode map entry still points
	// here. This amortises one disk read over up to blockSize/InodeSize
	// inodes, which is what keeps LFS's small-file read performance
	// competitive (§5.1): files created together have their inodes
	// packed together. A slot of a summary's header or entries fails
	// its record checksum like any torn slot.
	seg := fs.segOf(e.Addr)
	if seg < 0 {
		return nil, fmt.Errorf("lfs: inode %d address %v outside the segment area", ino, e.Addr)
	}
	blockStart := int64(fs.blockStart(seg, e.Addr))
	fs.cpu.Charge(sim.CostBlockSetup + sim.CostDiskOpSetup)
	blk := fs.span[:fs.cfg.BlockSize]
	if err := fs.d.ReadSectors(blockStart, blk, disk.CauseInodeMap, "inode read"); err != nil {
		return nil, err
	}
	fs.evictInodes()
	var want *layout.Inode
	for slot := 0; slot < fs.inodesPerBlock(); slot++ {
		raw := blk[slot*layout.InodeSize : (slot+1)*layout.InodeSize]
		if layout.AllZero(raw) {
			continue
		}
		rec, err := layout.DecodeInode(raw)
		if err != nil {
			continue // stale or torn slot; only the wanted ino matters
		}
		at, idx := slotAddr(layout.DiskAddr(blockStart), slot)
		re := fs.imap.peek(rec.Ino) // any number a record claims reads as free
		if rec.Ino == ino {
			if at == e.Addr && idx == e.Slot {
				want = fs.inodes.install(ino, rec)
			}
			continue
		}
		// Opportunistically cache neighbours that are still
		// current, unless a (possibly dirty) copy is already in
		// core.
		if rec.Ino < 1 || rec.Ino > fs.imap.maxIno() || !rec.Allocated() || fs.inodes.get(rec.Ino) != nil {
			continue
		}
		if re.Allocated && re.Addr == at && re.Slot == idx {
			fs.inodes.install(rec.Ino, rec)
		}
	}
	if want == nil {
		return nil, fmt.Errorf("lfs: inode %d not found at %v slot %d", ino, e.Addr, e.Slot)
	}
	return want, nil
}

// evictInodes drops clean in-core inodes when over the limit, down to
// half of it. The eviction set is the ascending-inode prefix of the
// clean inodes: which inodes survive decides which future lookups go
// back to disk, and those reads charge simulated time, so the set must
// be the same on every rerun of a seed.
func (fs *FS) evictInodes() {
	if fs.inodes.n >= inodeCacheLimit {
		fs.inodes.dropClean(inodeCacheLimit / 2)
	}
}

// markInodeDirty queues ino, which an operation fetched or created, for
// the next segment write; a record evicted since comes back in core with
// the operation's updates.
func (fs *FS) markInodeDirty(ino layout.Ino) { fs.inodes.setDirty(ino, true) }

// dropInode removes ino from the in-core tables (unlink). The inode
// map may hand the number to a new file, which must not inherit the
// old one's read-ahead position.
func (fs *FS) dropInode(ino layout.Ino) {
	fs.inodes.drop(ino)
	fs.ForgetLocked(ino)
}

// getIndirect is what LFS supplies to the pointer walk
// (vfs.IndirectFunc): the cached indirect block (ino, id), read from the
// address p holds when it is not cached. A block never logged is, with
// create set, a fresh all-holes block that gets its address when the
// segment writer logs it, and nil without.
func (fs *FS) getIndirect(in *layout.Inode, id int64, p vfs.Ptr, create bool) (*cache.Block, error) {
	key := indKey(in.Ino, id)
	if b := fs.bc.Get(key); b != nil {
		fs.cpu.Charge(sim.CostBlockSetup)
		return b, nil
	}
	addr := p.Get()
	if addr.IsNil() {
		if !create {
			return nil, nil
		}
		b := fs.bc.Add(key)
		layout.FillNil(b.Data)
		fs.bc.MarkDirty(b, fs.clock.Now())
		return b, nil
	}
	b := fs.bc.Add(key)
	fs.cpu.Charge(sim.CostBlockSetup + sim.CostDiskOpSetup)
	if err := fs.d.ReadSectors(int64(addr), b.Data, disk.CauseReadMiss, "indirect read"); err != nil {
		fs.bc.Remove(key)
		return nil, err
	}
	return b, nil
}

// blockAddrOf returns the current on-disk address of data block lbn,
// or NilAddr when the block has never been written (a hole or a
// cache-only block).
func (fs *FS) blockAddrOf(in *layout.Inode, lbn int64) (layout.DiskAddr, error) {
	p, err := vfs.BlockPtr(in, lbn, fs.cfg.BlockSize, fs.indirect, false)
	return p.Get(), err
}

// setBlockAddr points lbn at addr, creating indirect blocks as needed
// (this is how the segment writer redirects pointers to a block's new
// log location). It returns the address previously stored there.
func (fs *FS) setBlockAddr(in *layout.Inode, lbn int64, addr layout.DiskAddr) (layout.DiskAddr, error) {
	p, err := vfs.BlockPtr(in, lbn, fs.cfg.BlockSize, fs.indirect, true)
	return fs.repoint(in, p, err, addr)
}

// indirectAddrOf returns the current on-disk address of indirect block
// id of the file.
func (fs *FS) indirectAddrOf(in *layout.Inode, id int64) (layout.DiskAddr, error) {
	p, err := vfs.IndirectPtr(in, id, fs.indirect, false)
	return p.Get(), err
}

// setIndirectAddr redirects indirect block id to addr and returns the
// previous address.
func (fs *FS) setIndirectAddr(in *layout.Inode, id int64, addr layout.DiskAddr) (layout.DiskAddr, error) {
	p, err := vfs.IndirectPtr(in, id, fs.indirect, true)
	return fs.repoint(in, p, err, addr)
}

// repoint stores addr at p, which a walk reached unless it failed with
// err, and returns the address p held. A changed address dirties what
// holds p: the inode, or the indirect block.
func (fs *FS) repoint(in *layout.Inode, p vfs.Ptr, err error, addr layout.DiskAddr) (layout.DiskAddr, error) {
	old := p.Get()
	if err != nil || old == addr {
		return old, err
	}
	if b := p.Set(addr); b != nil {
		fs.bc.MarkDirty(b, fs.clock.Now())
	} else {
		fs.markInodeDirty(in.Ino)
	}
	return old, nil
}
