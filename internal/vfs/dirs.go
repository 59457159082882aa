package vfs

import (
	"fmt"

	"lfs/internal/cache"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

// DirBlockFunc is the one thing a file system supplies to Dirs:
// directory data block lbn of dir, through the file system's own block
// cache and at its own simulated cost. With grow false, lbn is below
// the directory's block count and a hole — no block mapped there —
// comes back as (nil, nil). With grow true, lbn is the block count and
// the file system maps a new block there; Dirs initialises it and
// advances dir.Size.
type DirBlockFunc func(dir *layout.Inode, lbn int64, grow bool) (*cache.Block, error)

// nameEntry is one directory name cache record: the child's inode
// number and the directory block holding the entry. Directory entries
// never migrate between directory blocks (inserts and removals rewrite
// a single one), so the cached index stays valid for the entry's
// lifetime.
type nameEntry struct {
	ino layout.Ino
	db  int64
}

// nameCacheDirLimit bounds one directory's cached entries.
const nameCacheDirLimit = 32768

// Dirs is the directory layer LFS and FFS share: the paper changes how
// blocks are located and written and keeps UNIX FFS's directories
// (§4.2), so the code that walks them exists once. It is not safe for
// concurrent use; the owning file system's lock guards it.
type Dirs struct {
	block    DirBlockFunc
	bc       *cache.Cache
	clock    *sim.Clock
	size     int
	perBlock int64

	// names is the directory name cache (the UNIX namei cache both
	// SunOS and Sprite relied on): per directory, name → (child
	// inode, directory block holding the entry). Without it,
	// directory operations scan blocks linearly and the paper's
	// 10000-files-in-one-directory workload turns quadratic.
	names map[layout.Ino]map[string]nameEntry
	// entryCount is, per directory, how many entries it holds — present
	// only once a full scan has counted them (see Lookup), which is
	// what lets a complete name cache answer "no such name".
	entryCount map[layout.Ino]int
	// insertHint remembers, per directory, the first directory block
	// that may have room for a new entry.
	insertHint map[layout.Ino]int64
}

// NewDirs returns an empty directory layer over the file system's
// block cache and clock, fetching directory blocks through block. Each
// block holds blockSize/dirBlockSize directory blocks (layout's record
// format), the unit an entry never crosses and an insert or removal
// rewrites: LFS passes its block size, FFS 512 bytes (FORMAT.md).
func NewDirs(bc *cache.Cache, clock *sim.Clock, dirBlockSize int, block DirBlockFunc) *Dirs {
	return &Dirs{
		block:      block,
		bc:         bc,
		clock:      clock,
		size:       dirBlockSize,
		perBlock:   int64(bc.BlockSize() / dirBlockSize),
		names:      make(map[layout.Ino]map[string]nameEntry),
		entryCount: make(map[layout.Ino]int),
		insertHint: make(map[layout.Ino]int64),
	}
}

// walk hands fn each directory block of dir from directory block from
// on, with the cached file-system block holding it and its index, until
// fn returns true or an error. It fetches each file-system block once:
// that fetch is the walk's simulated cost. A hole is an error: a
// directory never has one unless a block pointer was lost, and a walk
// that skipped it would list, count or empty a directory it has not
// seen all of.
func (d *Dirs) walk(dir *layout.Inode, from int64, fn func(b *cache.Block, db int64, p []byte) (bool, error)) error {
	for lbn := from / d.perBlock; lbn < layout.BlocksForSize(dir.Size, d.bc.BlockSize()); lbn++ {
		b, err := d.block(dir, lbn, false)
		if err == nil && b == nil {
			err = fmt.Errorf("directory %d has a hole at block %d", dir.Ino, lbn)
		}
		if err != nil {
			return err
		}
		for db := max(from, lbn*d.perBlock); db < (lbn+1)*d.perBlock; db++ {
			off := int(db-lbn*d.perBlock) * d.size
			if done, err := fn(b, db, b.Data[off:off+d.size]); done || err != nil {
				return err
			}
		}
	}
	return nil
}

// edit runs op, layout's DirBlockAppendAt or DirBlockRemoveAt, on
// directory block db, whose bytes p lie in b, from the end b's copy
// recorded for it, and records the end op returns. cache.Block.DirEnd
// is an offset into b, so it also names the directory block last
// written there; for any other, the end is 0: validate first. Dirs
// alone writes cached directory blocks, so a recorded end stays true
// while the block is cached.
func (d *Dirs) edit(b *cache.Block, db int64, p []byte, op func(p []byte, end int) (int, bool, error)) (bool, error) {
	off := int(db%d.perBlock) * d.size
	end := int(b.DirEnd) - off
	if end <= 0 || end > d.size {
		end = 0
	}
	end, ok, err := op(p, end)
	b.DirEnd = 0
	if end > 0 {
		b.DirEnd = int32(off + end)
	}
	return ok, err
}

// cacheName records name→(ino,db) for the directory.
func (d *Dirs) cacheName(dir layout.Ino, name string, ino layout.Ino, db int64) {
	m := d.names[dir]
	if m == nil {
		m = make(map[string]nameEntry)
		d.names[dir] = m
	}
	if len(m) < nameCacheDirLimit {
		m[name] = nameEntry{ino: ino, db: db}
	}
}

// noteEntries keeps a directory's learned entry count in step with an
// insert or removal; a directory not yet counted stays uncounted.
func (d *Dirs) noteEntries(dir layout.Ino, delta int) {
	if n, ok := d.entryCount[dir]; ok {
		d.entryCount[dir] = n + delta
	}
}

// Forget drops everything cached about a directory (it was removed;
// its inode number may be reused).
func (d *Dirs) Forget(dir layout.Ino) {
	delete(d.names, dir)
	delete(d.insertHint, dir)
	delete(d.entryCount, dir)
}

// Complete reports whether the name cache provably holds every entry
// of the directory. The cache only ever holds entries the directory
// has, so once it holds as many as the directory does it holds all of
// them. The directory's entry count is learned from the first full
// scan that finds nothing and kept current by Insert and Remove; past
// nameCacheDirLimit, or on a freshly mounted file system, the sizes
// differ (or the count is unknown) and the answer is no.
func (d *Dirs) Complete(dir layout.Ino) bool {
	n, counted := d.entryCount[dir]
	return counted && len(d.names[dir]) == n
}

// Check verifies, against the directory's real listing, the two
// invariants Complete relies on: a learned entry count is the
// directory's entry count, and every cached name is an entry of the
// directory with that inode.
func (d *Dirs) Check(dir layout.Ino, entries []layout.DirEntry) error {
	if n, counted := d.entryCount[dir]; counted && n != len(entries) {
		return fmt.Errorf("directory %d: learned entry count %d, directory holds %d", dir, n, len(entries))
	}
	byName := make(map[string]layout.Ino, len(entries))
	for _, e := range entries {
		byName[e.Name] = e.Ino
	}
	for name, e := range d.names[dir] {
		if ino, ok := byName[name]; !ok || ino != e.ino {
			return fmt.Errorf("directory %d: name cache has %q→%d, directory has %d (present=%v)", dir, name, e.ino, ino, ok)
		}
	}
	return nil
}

// Lookup searches the directory for name, consulting the name cache
// first.
//
// A miss in the name cache walks every directory block through the
// file system's cache — that walk is the simulated cost of a failed
// lookup (block set-up CPU, cache hits and LRU touches, disk reads for
// evicted blocks) and always happens. What is skipped when the name
// cache is complete is only the host-side byte scan of each block,
// which could not find a name the cache lacks.
func (d *Dirs) Lookup(dir *layout.Inode, name string) (layout.Ino, bool, error) {
	if e, ok := d.names[dir.Ino][name]; ok {
		return e.ino, true, nil
	}
	complete := d.Complete(dir.Ino)
	var ino layout.Ino
	found, entries := false, 0
	err := d.walk(dir, 0, func(_ *cache.Block, db int64, p []byte) (bool, error) {
		if complete {
			return false, nil
		}
		var err error
		if ino, found, err = layout.DirBlockFind(p, name); found {
			d.cacheName(dir.Ino, name, ino, db)
		}
		n, _ := layout.DirBlockCount(p) // DirBlockFind validated the block
		entries += n
		return found, err
	})
	if err == nil && !found && !complete {
		d.entryCount[dir.Ino] = entries
	}
	return ino, found, err
}

// Insert adds name→ino, growing the directory by one block when none
// has room. It returns the block it dirtied and whether the directory
// grew (dir.Size changed): FFS writes the block, then a grown
// directory's inode, synchronously (Figure 1), LFS queues the inode for
// the next segment write (Figure 2). The per-directory hint makes
// append-mostly insertion O(1) instead of a scan of every block.
//
// Every caller has just looked name up and missed (vfs.Front's absent),
// so no directory block holds it: the entry goes at the end of the
// first directory block with room, with no scan for a duplicate.
func (d *Dirs) Insert(dir *layout.Inode, name string, ino layout.Ino) (*cache.Block, bool, error) {
	e := layout.DirEntry{Ino: ino, Name: name}
	var into *cache.Block
	err := d.walk(dir, d.insertHint[dir.Ino], func(b *cache.Block, db int64, p []byte) (bool, error) {
		ok, err := d.appendTo(dir.Ino, b, db, p, e)
		if ok {
			into = b
		}
		return ok, err
	})
	if err != nil || into != nil {
		return into, false, err
	}
	lbn := layout.BlocksForSize(dir.Size, d.bc.BlockSize())
	b, err := d.block(dir, lbn, true)
	if err != nil {
		return nil, false, err
	}
	layout.InitDirBlock(b.Data)
	b.DirEnd = 0 // the bytes were rewritten: no recorded end describes them
	if ok, err := d.appendTo(dir.Ino, b, lbn*d.perBlock, b.Data[:d.size], e); !ok {
		if err == nil {
			err = fmt.Errorf("entry %q does not fit in an empty block", name)
		}
		return nil, false, err
	}
	dir.Size += uint64(d.bc.BlockSize())
	return b, true, nil
}

// appendTo adds e at the end of directory block db of dir, whose bytes
// p lie in b. A placed entry dirties b and is cached.
func (d *Dirs) appendTo(dir layout.Ino, b *cache.Block, db int64, p []byte, e layout.DirEntry) (bool, error) {
	ok, err := d.edit(b, db, p, func(p []byte, end int) (int, bool, error) { return layout.DirBlockAppendAt(p, end, e) })
	if ok {
		d.bc.MarkDirty(b, d.clock.Now())
		d.insertHint[dir] = db
		d.cacheName(dir, e.Name, e.Ino, db)
		d.noteEntries(dir, +1)
	}
	return ok, err
}

// Remove deletes name from the directory, starting at the directory
// block the name cache holds for it (exact: entries never leave their
// directory block), else at the first, and returns the block it
// dirtied.
func (d *Dirs) Remove(dir *layout.Inode, name string) (*cache.Block, error) {
	var from *cache.Block
	err := d.walk(dir, d.names[dir.Ino][name].db, func(b *cache.Block, db int64, p []byte) (bool, error) {
		removed, err := d.edit(b, db, p, func(p []byte, end int) (int, bool, error) { return layout.DirBlockRemoveAt(p, end, name) })
		if removed {
			from = b
			d.bc.MarkDirty(b, d.clock.Now())
			delete(d.names[dir.Ino], name)
			d.noteEntries(dir.Ino, -1)
			// Freed space may precede the insert hint.
			if hint, ok := d.insertHint[dir.Ino]; ok && db < hint {
				d.insertHint[dir.Ino] = db
			}
		}
		return removed, err
	})
	if err == nil && from == nil {
		err = fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	return from, err
}

// Entries lists the directory in name order.
func (d *Dirs) Entries(dir *layout.Inode) ([]layout.DirEntry, error) {
	var all []layout.DirEntry
	err := d.walk(dir, 0, func(_ *cache.Block, _ int64, p []byte) (bool, error) {
		entries, err := layout.DirBlockEntries(p)
		all = append(all, entries...)
		return false, err
	})
	if err != nil {
		return nil, err
	}
	layout.SortEntries(all)
	return all, nil
}

// Empty reports whether the directory has no entries.
func (d *Dirs) Empty(dir *layout.Inode) (bool, error) {
	empty := true
	err := d.walk(dir, 0, func(_ *cache.Block, _ int64, p []byte) (bool, error) {
		n, err := layout.DirBlockCount(p)
		empty = n == 0
		return !empty, err
	})
	return empty, err
}
