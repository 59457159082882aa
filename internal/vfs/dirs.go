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
// number and the directory data block holding the entry. Directory
// entries never migrate between blocks (inserts and removals rewrite
// a single block), so the cached block number stays valid for the
// entry's lifetime.
type nameEntry struct {
	ino layout.Ino
	lbn int64
}

// nameCacheDirLimit bounds one directory's cached entries.
const nameCacheDirLimit = 32768

// Dirs is the directory layer LFS and FFS share: the paper changes how
// blocks are located and written and keeps UNIX FFS's directories
// (§4.2), so the code that walks them exists once. It is not safe for
// concurrent use; the owning file system's lock guards it.
type Dirs struct {
	block DirBlockFunc
	bc    *cache.Cache
	clock *sim.Clock

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
	// insertHint remembers, per directory, the first data block
	// that may have room for a new entry.
	insertHint map[layout.Ino]int64
}

// NewDirs returns an empty directory layer over the file system's
// block cache and clock, fetching directory blocks through block.
func NewDirs(bc *cache.Cache, clock *sim.Clock, block DirBlockFunc) *Dirs {
	return &Dirs{
		block:      block,
		bc:         bc,
		clock:      clock,
		names:      make(map[layout.Ino]map[string]nameEntry),
		entryCount: make(map[layout.Ino]int),
		insertHint: make(map[layout.Ino]int64),
	}
}

// blocks returns the directory's data block count.
func (d *Dirs) blocks(dir *layout.Inode) int64 {
	return layout.BlocksForSize(dir.Size, d.bc.BlockSize())
}

// get fetches an existing directory block. A hole is an error in every
// walk: a directory never has one unless a block pointer was lost, and
// a walk that skipped it would list, count or empty a directory it has
// not seen all of.
func (d *Dirs) get(dir *layout.Inode, lbn int64) (*cache.Block, error) {
	b, err := d.block(dir, lbn, false)
	if err == nil && b == nil {
		err = fmt.Errorf("directory %d has a hole at block %d", dir.Ino, lbn)
	}
	return b, err
}

// cacheName records name→(ino,lbn) for the directory.
func (d *Dirs) cacheName(dir layout.Ino, name string, ino layout.Ino, lbn int64) {
	m := d.names[dir]
	if m == nil {
		m = make(map[string]nameEntry)
		d.names[dir] = m
	}
	if len(m) < nameCacheDirLimit {
		m[name] = nameEntry{ino: ino, lbn: lbn}
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
	entries := 0
	for lbn := int64(0); lbn < d.blocks(dir); lbn++ {
		b, err := d.get(dir, lbn)
		if err != nil {
			return 0, false, err
		}
		if complete {
			continue
		}
		ino, found, err := layout.DirBlockFind(b.Data, name)
		if err != nil {
			return 0, false, err
		}
		if found {
			d.cacheName(dir.Ino, name, ino, lbn)
			return ino, true, nil
		}
		n, _ := layout.DirBlockCount(b.Data) // DirBlockFind validated the block
		entries += n
	}
	if !complete {
		d.entryCount[dir.Ino] = entries
	}
	return 0, false, nil
}

// Insert adds name→ino, growing the directory by one block when none
// has room. It returns the block it dirtied and whether the directory
// grew (dir.Size changed): FFS writes the block, then a grown
// directory's inode, synchronously (Figure 1), LFS queues the inode for
// the next segment write (Figure 2). The per-directory hint makes append-mostly
// insertion O(1) instead of a scan of every block.
func (d *Dirs) Insert(dir *layout.Inode, name string, ino layout.Ino) (*cache.Block, bool, error) {
	entry := layout.DirEntry{Ino: ino, Name: name}
	_, cached := d.names[dir.Ino][name]
	absent := !cached && d.Complete(dir.Ino)
	for lbn := d.insertHint[dir.Ino]; lbn < d.blocks(dir); lbn++ {
		b, err := d.get(dir, lbn)
		if err != nil {
			return nil, false, err
		}
		ok, err := insertInto(b, entry, absent)
		if err != nil {
			return nil, false, err
		}
		if ok {
			d.inserted(dir.Ino, entry, b, lbn)
			return b, false, nil
		}
	}
	lbn := d.blocks(dir)
	b, err := d.block(dir, lbn, true)
	if err != nil {
		return nil, false, err
	}
	layout.InitDirBlock(b.Data)
	b.DirEnd = 0 // the bytes were rewritten: no recorded end describes them
	ok, err := insertInto(b, entry, absent)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, fmt.Errorf("entry %q does not fit in an empty block", name)
	}
	dir.Size += uint64(d.bc.BlockSize())
	d.inserted(dir.Ino, entry, b, lbn)
	return b, true, nil
}

// insertInto adds e to directory block b: at the end b records when
// absent (a complete name cache lacks the name) proves no block holds
// it, else through DirBlockInsert's full scan, after which b records no
// end. Dirs alone writes cached directory blocks, so a recorded end
// stays true while the block is cached.
func insertInto(b *cache.Block, e layout.DirEntry, absent bool) (bool, error) {
	if !absent {
		ok, err := layout.DirBlockInsert(b.Data, e)
		if ok {
			b.DirEnd = 0
		}
		return ok, err
	}
	end, ok, err := layout.DirBlockAppendAt(b.Data, int(b.DirEnd), e)
	b.DirEnd = int32(end)
	return ok, err
}

// inserted records an entry just placed in block lbn of the directory.
func (d *Dirs) inserted(dir layout.Ino, e layout.DirEntry, b *cache.Block, lbn int64) {
	d.bc.MarkDirty(b, d.clock.Now())
	d.insertHint[dir] = lbn
	d.cacheName(dir, e.Name, e.Ino, lbn)
	d.noteEntries(dir, +1)
}

// Remove deletes name from the directory, going straight to the cached
// block when the name cache knows it, and returns the block it dirtied.
func (d *Dirs) Remove(dir *layout.Inode, name string) (*cache.Block, error) {
	start := int64(0)
	if e, ok := d.names[dir.Ino][name]; ok {
		start = e.lbn
	}
	for pass := 0; pass < 2; pass++ {
		for lbn := start; lbn < d.blocks(dir); lbn++ {
			b, err := d.get(dir, lbn)
			if err != nil {
				return nil, err
			}
			end, removed, err := layout.DirBlockRemoveAt(b.Data, int(b.DirEnd), name)
			b.DirEnd = int32(end)
			if err != nil {
				return nil, err
			}
			if removed {
				d.bc.MarkDirty(b, d.clock.Now())
				delete(d.names[dir.Ino], name)
				d.noteEntries(dir.Ino, -1)
				// Freed space may precede the insert hint.
				if hint, ok := d.insertHint[dir.Ino]; ok && lbn < hint {
					d.insertHint[dir.Ino] = lbn
				}
				return b, nil
			}
		}
		if start == 0 {
			break // full scan already done
		}
		start = 0 // stale hint: rescan from the beginning
	}
	return nil, fmt.Errorf("%w: %q", ErrNotExist, name)
}

// Entries lists the directory in name order.
func (d *Dirs) Entries(dir *layout.Inode) ([]layout.DirEntry, error) {
	var all []layout.DirEntry
	for lbn := int64(0); lbn < d.blocks(dir); lbn++ {
		b, err := d.get(dir, lbn)
		if err != nil {
			return nil, err
		}
		entries, err := layout.DirBlockEntries(b.Data)
		if err != nil {
			return nil, err
		}
		all = append(all, entries...)
	}
	layout.SortEntries(all)
	return all, nil
}

// Empty reports whether the directory has no entries.
func (d *Dirs) Empty(dir *layout.Inode) (bool, error) {
	for lbn := int64(0); lbn < d.blocks(dir); lbn++ {
		b, err := d.get(dir, lbn)
		if err != nil {
			return false, err
		}
		n, err := layout.DirBlockCount(b.Data)
		if err != nil {
			return false, err
		}
		if n > 0 {
			return false, nil
		}
	}
	return true, nil
}
