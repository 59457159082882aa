package ffs

import (
	"lfs/internal/cache"
	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// FS implements vfs.FileSystem.
var _ vfs.FileSystem = (*FS)(nil)

// hooks is what FFS supplies to the shared front end (vfs.Front): the
// twelve operations' FFS halves, each run after Front has walked the
// path and checked the arguments.
func (fs *FS) hooks() vfs.Hooks {
	return vfs.Hooks{
		Mounted:  fs.checkMounted,
		Inode:    fs.inode,
		Atime:    func(ino layout.Ino) sim.Time { return fs.atimes[ino] },
		Indirect: fs.indirect,
		Find:     fs.findData,
		Key:      func(_ *layout.Inode, _ int64, a layout.DiskAddr) cache.Key { return blockKey(fs.lay.blockOf(a)) },
		Accessed: func(in *layout.Inode) error { fs.atimes[in.Ino] = fs.clock.Now(); return nil },
		Create:   fs.createNode,
		Write:    fs.write,
		Remove:   fs.remove,
		Link:     fs.link,
		Rename:   fs.rename,
		Truncate: fs.truncate,
		Sync:     fs.sync,
		Unmount:  fs.unmount,
		Epilogue: fs.maybeWriteback,
	}
}

func (fs *FS) checkMounted() error {
	if fs.unmounted {
		return vfs.ErrUnmounted
	}
	return nil
}

// inode reads ino's record into fs.walked[slot], where it stays until
// the slot's next use.
func (fs *FS) inode(slot int, ino layout.Ino) (*layout.Inode, error) {
	in := &fs.walked[slot]
	var err error
	*in, err = fs.readInode(ino)
	return in, err
}

// dirBlock is what FFS supplies to the shared directory layer
// (vfs.Dirs): directory data block lbn through the block cache, nil
// for a hole, or a newly allocated block when the directory grows by
// it. The layer returns the block it dirtied so the caller can force
// it to disk synchronously (Figure 1).
func (fs *FS) dirBlock(dir *layout.Inode, lbn int64, grow bool) (*cache.Block, error) {
	pb, _, err := fs.bmap(dir, lbn, grow)
	if err != nil || pb < 0 {
		return nil, err
	}
	return fs.getBlock(pb, !grow, "dir data")
}

// dirEnter adds name→ino to dir in BSD direnter's order: the directory
// block synchronously, then, if the directory grew by it, the
// directory's inode synchronously, so no returned name hangs off a block
// the inode on disk does not point at. data and inode label the two
// writes.
func (fs *FS) dirEnter(dir *layout.Inode, name string, ino layout.Ino, data, inode string) error {
	b, grew, err := fs.dirs.Insert(dir, name, ino)
	if err != nil {
		return err
	}
	if err := fs.writeBlockSync(b, data); err != nil || !grew {
		return err
	}
	return fs.writeInode(dir, true, inode)
}

// createNode is Create and Mkdir. It performs FFS's defining
// synchronous writes: the new inode's table block and the parent
// directory's data block go to disk before the call returns (Figure 1
// of the paper). Mkdir writes the new directory's first, empty block
// before its inode, as BSD's mkdir writes "." and "..", so a directory
// does not grow at its first entry.
func (fs *FS) createNode(parent *layout.Inode, base string, isDir bool) error {
	prefGroup := fs.lay.groupOf(parent.Ino)
	mode := layout.ModeFile | 0o644
	if isDir {
		prefGroup = fs.nextDirGroup
		mode = layout.ModeDir | 0o755
	}
	ino, err := fs.allocInode(prefGroup, isDir)
	if err != nil {
		return err
	}
	in := layout.NewInode(ino, mode)
	if isDir {
		in.Nlink = 2
		b, err := fs.dirBlock(&in, 0, true)
		if err != nil {
			return err
		}
		layout.InitDirBlock(b.Data)
		in.Size = uint64(fs.cfg.BlockSize)
		if err := fs.writeBlockSync(b, "mkdir: dir data"); err != nil {
			return err
		}
	}
	now := int64(fs.clock.Now())
	in.Mtime, in.Ctime = now, now
	// Synchronous write #1: the new inode.
	if err := fs.writeInode(&in, true, "creat: inode"); err != nil {
		return err
	}
	// Synchronous write #2: the directory data block.
	if err := fs.dirEnter(parent, base, ino, "creat: dir data", "creat: dir inode"); err != nil {
		return err
	}
	// The parent's inode (mtime) goes out with the delayed write-back.
	parent.Mtime = now
	if err := fs.writeInode(parent, false, "creat: dir inode"); err != nil {
		return err
	}
	fs.atimes[ino] = fs.clock.Now()
	return nil
}

// write stores data at off, growing the file as needed. Data blocks
// are dirtied in the cache and written back later — asynchronously but
// to their (random) update-in-place locations.
func (fs *FS) write(in *layout.Inode, off int64, data []byte) error {
	if err := fs.writeFile(in, off, data); err != nil {
		return err
	}
	in.Mtime = int64(fs.clock.Now())
	return fs.writeInode(in, false, "write: inode")
}

// remove releases an unlinked file or removed directory, with FFS's
// synchronous writes of the directory block and the freed inode's
// table block.
func (fs *FS) remove(parent, in *layout.Inode, dirBlk *cache.Block) error {
	// Synchronous write #1: the directory block losing the entry.
	if err := fs.writeBlockSync(dirBlk, "unlink: dir data"); err != nil {
		return err
	}
	// With other hard links remaining, only the link count drops;
	// the storage goes when the last name does. Synchronous write
	// #2 either way: the updated or cleared inode.
	if ino := in.Ino; !in.Mode.IsDir() && in.Nlink > 1 {
		in.Nlink--
		if err := fs.writeInode(in, true, "unlink: inode"); err != nil {
			return err
		}
	} else {
		if err := fs.truncateFile(in, 0); err != nil {
			return err
		}
		if err := fs.clearInode(ino, true, "unlink: inode"); err != nil {
			return err
		}
		if err := fs.freeInode(ino); err != nil {
			return err
		}
	}
	parent.Mtime = int64(fs.clock.Now())
	return fs.writeInode(parent, false, "unlink: dir inode")
}

// link adds a second directory entry for a regular file. Like creat,
// BSD writes both the directory block and the updated inode
// synchronously.
func (fs *FS) link(in, newParent *layout.Inode, newBase string) error {
	if err := fs.dirEnter(newParent, newBase, in.Ino, "link: dir data", "link: dir inode"); err != nil {
		return err
	}
	in.Nlink++
	if err := fs.writeInode(in, true, "link: inode"); err != nil {
		return err
	}
	newParent.Mtime = int64(fs.clock.Now())
	return fs.writeInode(newParent, false, "link: dir inode")
}

// rename moves the entry between the two parents.
func (fs *FS) rename(oldParent *layout.Inode, oldBase string, ino layout.Ino, newParent *layout.Inode, newBase string) error {
	// Insert first, then remove, so a crash between the two leaves
	// the file reachable (possibly twice) rather than lost. Both
	// directory blocks are written synchronously, as BSD does.
	if err := fs.dirEnter(newParent, newBase, ino, "rename: dir data", "rename: dir inode"); err != nil {
		return err
	}
	// Re-read the old parent in case both names share blocks. When
	// the two parents are the same directory, operate on the
	// updated copy.
	if newParent.Ino == oldParent.Ino {
		oldParent = newParent
	}
	rmBlk, err := fs.dirs.Remove(oldParent, oldBase)
	if err != nil {
		return err
	}
	if err := fs.writeBlockSync(rmBlk, "rename: dir data"); err != nil {
		return err
	}
	now := int64(fs.clock.Now())
	oldParent.Mtime = now
	if err := fs.writeInode(oldParent, false, "rename: dir inode"); err != nil {
		return err
	}
	if newParent.Ino != oldParent.Ino {
		newParent.Mtime = now
		return fs.writeInode(newParent, false, "rename: dir inode")
	}
	return nil
}

// truncate sets the file length.
func (fs *FS) truncate(in *layout.Inode, size int64) error {
	if err := fs.truncateFile(in, size); err != nil {
		return err
	}
	in.Mtime = int64(fs.clock.Now())
	return fs.writeInode(in, false, "truncate: inode")
}

// sync writes all dirty cached blocks to disk and waits for them.
func (fs *FS) sync() error {
	if err := fs.writeback(true); err != nil {
		return err
	}
	// Waiting out the queued write-back transfers is commit wait.
	fs.op.DrainAs(obs.PhaseCommitWait)
	return nil
}

// unmount syncs, charging the system call Sync does, and detaches the
// file system.
func (fs *FS) unmount() error {
	fs.cpu.Charge(sim.CostSyscall)
	if err := fs.sync(); err != nil {
		return err
	}
	fs.unmounted = true
	return nil
}
