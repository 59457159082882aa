package core

import (
	"fmt"

	"lfs/internal/layout"
	"lfs/internal/vfs"
)

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

// dirBlocks returns the directory's data block count.
func (fs *FS) dirBlocks(dir *layout.Inode) int64 {
	return layout.BlocksForSize(dir.Size, fs.cfg.BlockSize)
}

// cacheName records name→(ino,lbn) for the directory.
func (fs *FS) cacheName(dir layout.Ino, name string, ino layout.Ino, lbn int64) {
	m := fs.names[dir]
	if m == nil {
		m = make(map[string]nameEntry)
		fs.names[dir] = m
	}
	if len(m) < nameCacheDirLimit {
		m[name] = nameEntry{ino: ino, lbn: lbn}
	}
}

// forgetName drops one cached name.
func (fs *FS) forgetName(dir layout.Ino, name string) {
	if m := fs.names[dir]; m != nil {
		delete(m, name)
	}
}

// forgetDir drops a directory's whole name cache (the directory was
// removed; its inode number may be reused).
func (fs *FS) forgetDir(dir layout.Ino) {
	delete(fs.names, dir)
	delete(fs.insertHint, dir)
	delete(fs.entryCount, dir)
}

// noteEntries keeps a directory's learned entry count in step with an
// insert or removal; a directory not yet counted stays uncounted.
func (fs *FS) noteEntries(dir layout.Ino, delta int) {
	if n, ok := fs.entryCount[dir]; ok {
		fs.entryCount[dir] = n + delta
	}
}

// nameCacheComplete reports whether the name cache provably holds
// every entry of the directory. The cache only ever holds entries the
// directory has, so once it holds as many as the directory does it
// holds all of them. The directory's entry count is learned from the
// first full scan that finds nothing and kept current by dirInsert and
// dirRemove; past nameCacheDirLimit, or on a freshly mounted FS, the
// sizes differ (or the count is unknown) and the answer is no.
func (fs *FS) nameCacheComplete(dir layout.Ino) bool {
	n, counted := fs.entryCount[dir]
	return counted && len(fs.names[dir]) == n
}

// dirLookup searches the directory for name, consulting the name
// cache first.
//
// A miss in the name cache walks every directory block through
// getDataBlock — that walk is the simulated cost of a failed lookup
// (block set-up CPU, cache hits and LRU touches, disk reads for evicted
// blocks) and always happens. What is skipped when the name cache is
// complete is only the host-side byte scan of each block, which could
// not find a name the cache lacks.
func (fs *FS) dirLookup(dir *layout.Inode, name string) (layout.Ino, bool, error) {
	if e, ok := fs.names[dir.Ino][name]; ok {
		return e.ino, true, nil
	}
	complete := fs.nameCacheComplete(dir.Ino)
	entries := 0
	for lbn := int64(0); lbn < fs.dirBlocks(dir); lbn++ {
		b, err := fs.getDataBlock(dir, lbn, false)
		if err != nil {
			return 0, false, err
		}
		if b == nil {
			return 0, false, fmt.Errorf("lfs: directory %d has a hole at block %d", dir.Ino, lbn)
		}
		if complete {
			continue
		}
		ino, found, err := layout.DirBlockFind(b.Data, name)
		if err != nil {
			return 0, false, err
		}
		if found {
			fs.cacheName(dir.Ino, name, ino, lbn)
			return ino, true, nil
		}
		n, _ := layout.DirBlockCount(b.Data) // DirBlockFind validated the block
		entries += n
	}
	if !complete {
		fs.entryCount[dir.Ino] = entries
	}
	return 0, false, nil
}

// dirInsert adds name→ino, growing the directory when needed. Unlike
// FFS nothing is written synchronously: the dirtied block rides the
// next segment write (Figure 2). The per-directory hint makes
// append-mostly insertion O(1) instead of a scan of every block.
func (fs *FS) dirInsert(dir *layout.Inode, name string, ino layout.Ino) error {
	for lbn := fs.insertHint[dir.Ino]; lbn < fs.dirBlocks(dir); lbn++ {
		b, err := fs.getDataBlock(dir, lbn, false)
		if err != nil {
			return err
		}
		if b == nil {
			return fmt.Errorf("lfs: directory %d has a hole at block %d", dir.Ino, lbn)
		}
		ok, err := layout.DirBlockInsert(b.Data, layout.DirEntry{Ino: ino, Name: name})
		if err != nil {
			return err
		}
		if ok {
			fs.bc.MarkDirty(b, fs.clock.Now())
			fs.insertHint[dir.Ino] = lbn
			fs.cacheName(dir.Ino, name, ino, lbn)
			fs.noteEntries(dir.Ino, +1)
			return nil
		}
	}
	lbn := fs.dirBlocks(dir)
	b, err := fs.getDataBlock(dir, lbn, true)
	if err != nil {
		return err
	}
	layout.InitDirBlock(b.Data)
	ok, err := layout.DirBlockInsert(b.Data, layout.DirEntry{Ino: ino, Name: name})
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("lfs: entry %q does not fit in an empty block", name)
	}
	fs.bc.MarkDirty(b, fs.clock.Now())
	dir.Size += uint64(fs.cfg.BlockSize)
	fs.markInodeDirty(dir.Ino)
	fs.insertHint[dir.Ino] = lbn
	fs.cacheName(dir.Ino, name, ino, lbn)
	fs.noteEntries(dir.Ino, +1)
	return nil
}

// dirRemove deletes name from the directory, going straight to the
// cached block when the name cache knows it.
func (fs *FS) dirRemove(dir *layout.Inode, name string) error {
	start := int64(0)
	if e, ok := fs.names[dir.Ino][name]; ok {
		start = e.lbn
	}
	for pass := 0; pass < 2; pass++ {
		for lbn := start; lbn < fs.dirBlocks(dir); lbn++ {
			b, err := fs.getDataBlock(dir, lbn, false)
			if err != nil {
				return err
			}
			if b == nil {
				continue
			}
			removed, err := layout.DirBlockRemove(b.Data, name)
			if err != nil {
				return err
			}
			if removed {
				fs.bc.MarkDirty(b, fs.clock.Now())
				fs.forgetName(dir.Ino, name)
				fs.noteEntries(dir.Ino, -1)
				// Freed space may precede the insert hint.
				if hint, ok := fs.insertHint[dir.Ino]; ok && lbn < hint {
					fs.insertHint[dir.Ino] = lbn
				}
				return nil
			}
		}
		if start == 0 {
			break // full scan already done
		}
		start = 0 // stale hint: rescan from the beginning
	}
	return fmt.Errorf("%w: %q", vfs.ErrNotExist, name)
}

// dirEntries lists the directory in name order.
func (fs *FS) dirEntries(dir *layout.Inode) ([]layout.DirEntry, error) {
	var all []layout.DirEntry
	for lbn := int64(0); lbn < fs.dirBlocks(dir); lbn++ {
		b, err := fs.getDataBlock(dir, lbn, false)
		if err != nil {
			return nil, err
		}
		if b == nil {
			continue
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

// dirEmpty reports whether the directory has no entries.
func (fs *FS) dirEmpty(dir *layout.Inode) (bool, error) {
	for lbn := int64(0); lbn < fs.dirBlocks(dir); lbn++ {
		b, err := fs.getDataBlock(dir, lbn, false)
		if err != nil {
			return false, err
		}
		if b == nil {
			continue
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

// resolve walks path components from the root.
func (fs *FS) resolve(parts []string) (*layout.Inode, error) {
	in, err := fs.getInode(layout.RootIno)
	if err != nil {
		return nil, err
	}
	for i, name := range parts {
		fs.cpu.Charge(fs.cfg.Costs.PathComponent)
		if !in.Mode.IsDir() {
			return nil, fmt.Errorf("%w: %q", vfs.ErrNotDir, parts[:i])
		}
		ino, found, err := fs.dirLookup(in, name)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("%w: %q", vfs.ErrNotExist, parts[:i+1])
		}
		in, err = fs.getInode(ino)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// resolveDir resolves parts and requires a directory.
func (fs *FS) resolveDir(parts []string) (*layout.Inode, error) {
	in, err := fs.resolve(parts)
	if err != nil {
		return nil, err
	}
	if !in.Mode.IsDir() {
		return nil, fmt.Errorf("%w: %q", vfs.ErrNotDir, parts)
	}
	return in, nil
}
