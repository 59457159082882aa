package ffs

import (
	"fmt"

	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// FS implements vfs.FileSystem.
var _ vfs.FileSystem = (*FS)(nil)

func (fs *FS) checkMounted() error {
	if fs.unmounted {
		return vfs.ErrUnmounted
	}
	return nil
}

// maxFileSize returns the double-indirect limit in bytes.
func (fs *FS) maxFileSize() int64 {
	return layout.MaxFileBlocks(fs.cfg.BlockSize) * int64(fs.cfg.BlockSize)
}

// createNode is the shared implementation of Create and Mkdir. It
// performs FFS's defining synchronous writes: the new inode's table
// block and the parent directory's data block go to disk before the
// call returns (Figure 1 of the paper).
func (fs *FS) createNode(path string, isDir bool) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall + fs.cfg.Costs.Create)
	dirParts, base, err := vfs.AppendDirBase(fs.parts[:0], path)
	if err != nil {
		return err
	}
	parent, err := fs.resolveDir(0, dirParts)
	if err != nil {
		return err
	}
	if _, exists, err := fs.dirs.Lookup(parent, base); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %q", vfs.ErrExist, path)
	}

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
	}
	now := int64(fs.clock.Now())
	in.Mtime, in.Ctime = now, now
	// Synchronous write #1: the new inode.
	if err := fs.writeInode(&in, true, "creat: inode"); err != nil {
		return err
	}
	// Synchronous write #2: the directory data block.
	dirBlk, _, err := fs.dirs.Insert(parent, base, ino)
	if err != nil {
		return err
	}
	if err := fs.writeBlockSync(dirBlk, "creat: dir data"); err != nil {
		return err
	}
	// The parent's inode (mtime, possibly size) goes out with the
	// delayed write-back.
	parent.Mtime = now
	if err := fs.writeInode(parent, false, "creat: dir inode"); err != nil {
		return err
	}
	fs.atimes[ino] = fs.clock.Now()
	return fs.maybeWriteback()
}

// Create makes a new empty regular file.
func (fs *FS) Create(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("create", path, fs.createNode(path, false))
}

// Mkdir makes a new empty directory.
func (fs *FS) Mkdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("mkdir", path, fs.createNode(path, true))
}

// lookupFile resolves path and requires a regular file.
func (fs *FS) lookupFile(path string) (*layout.Inode, error) {
	parts, err := vfs.AppendPath(fs.parts[:0], path)
	if err != nil {
		return nil, err
	}
	in, err := fs.resolve(0, parts)
	if err != nil {
		return nil, err
	}
	if in.Mode.IsDir() {
		return nil, fmt.Errorf("%w: %q", vfs.ErrIsDir, path)
	}
	return in, nil
}

// Write stores data at off, growing the file as needed. Data blocks
// are dirtied in the cache and written back later — asynchronously but
// to their (random) update-in-place locations.
func (fs *FS) Write(path string, off int64, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("write", path, fs.write(path, off, data))
}

// write is Write without the lock, span, or error wrapping.
func (fs *FS) write(path string, off int64, data []byte) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall)
	in, err := fs.lookupFile(path)
	if err != nil {
		return err
	}
	if off < 0 {
		return fmt.Errorf("%w: negative offset %d", vfs.ErrInvalid, off)
	}
	if end := off + int64(len(data)); end > fs.maxFileSize() {
		return fmt.Errorf("%w: %q to %d bytes", vfs.ErrTooLarge, path, end)
	}
	if _, err := fs.writeFile(in, off, data); err != nil {
		return err
	}
	in.Mtime = int64(fs.clock.Now())
	if err := fs.writeInode(in, false, "write: inode"); err != nil {
		return err
	}
	return fs.maybeWriteback()
}

// Read fills buf from off.
func (fs *FS) Read(path string, off int64, buf []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	n, err := fs.read(path, off, buf)
	return n, fs.op.End("read", path, err)
}

// read is Read without the lock, span, or error wrapping.
func (fs *FS) read(path string, off int64, buf []byte) (int, error) {
	if err := fs.checkMounted(); err != nil {
		return 0, err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall)
	in, err := fs.lookupFile(path)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", vfs.ErrInvalid, off)
	}
	n, err := fs.readFile(in, off, buf)
	if err != nil {
		return n, err
	}
	fs.atimes[in.Ino] = fs.clock.Now()
	return n, nil
}

// Stat describes the file at path.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	fi, err := fs.stat(path)
	return fi, fs.op.End("stat", path, err)
}

// stat is Stat without the lock, span, or error wrapping.
func (fs *FS) stat(path string) (vfs.FileInfo, error) {
	if err := fs.checkMounted(); err != nil {
		return vfs.FileInfo{}, err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall)
	parts, err := vfs.AppendPath(fs.parts[:0], path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	in, err := fs.resolve(0, parts)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	fi := vfs.FileInfo{
		Ino:   in.Ino,
		Mode:  in.Mode,
		Nlink: int(in.Nlink),
		Mtime: sim.Time(in.Mtime),
		Atime: fs.atimes[in.Ino],
	}
	if !in.Mode.IsDir() {
		fi.Size = int64(in.Size)
	}
	return fi, nil
}

// ReadDir lists the directory in name order.
func (fs *FS) ReadDir(path string) ([]layout.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	ents, err := fs.readDir(path)
	return ents, fs.op.End("readdir", path, err)
}

// readDir is ReadDir without the lock, span, or error wrapping.
func (fs *FS) readDir(path string) ([]layout.DirEntry, error) {
	if err := fs.checkMounted(); err != nil {
		return nil, err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall)
	parts, err := vfs.AppendPath(fs.parts[:0], path)
	if err != nil {
		return nil, err
	}
	dir, err := fs.resolveDir(0, parts)
	if err != nil {
		return nil, err
	}
	return fs.dirs.Entries(dir)
}

// Remove unlinks a file or removes an empty directory, with FFS's
// synchronous writes of the directory block and the freed inode's
// table block.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("remove", path, fs.remove(path))
}

// remove is Remove without the lock, span, or error wrapping.
func (fs *FS) remove(path string) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall + fs.cfg.Costs.Unlink)
	dirParts, base, err := vfs.AppendDirBase(fs.parts[:0], path)
	if err != nil {
		return err
	}
	parent, err := fs.resolveDir(0, dirParts)
	if err != nil {
		return err
	}
	ino, found, err := fs.dirs.Lookup(parent, base)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", vfs.ErrNotExist, path)
	}
	in := &fs.walked[1]
	if *in, err = fs.readInode(ino); err != nil {
		return err
	}
	if in.Mode.IsDir() {
		empty, err := fs.dirs.Empty(in)
		if err != nil {
			return err
		}
		if !empty {
			return fmt.Errorf("%w: %q", vfs.ErrNotEmpty, path)
		}
	}
	// Synchronous write #1: the directory block losing the entry.
	dirBlk, err := fs.dirs.Remove(parent, base)
	if err != nil {
		return err
	}
	if in.Mode.IsDir() {
		fs.dirs.Forget(ino)
	}
	if err := fs.writeBlockSync(dirBlk, "unlink: dir data"); err != nil {
		return err
	}
	// With other hard links remaining, only the link count drops;
	// the storage goes when the last name does. Synchronous write
	// #2 either way: the updated or cleared inode.
	if !in.Mode.IsDir() && in.Nlink > 1 {
		in.Nlink--
		if err := fs.writeInode(in, true, "unlink: inode"); err != nil {
			return err
		}
	} else {
		if err := fs.freeAllBlocks(in); err != nil {
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
	if err := fs.writeInode(parent, false, "unlink: dir inode"); err != nil {
		return err
	}
	return fs.maybeWriteback()
}

// Link creates a second directory entry for an existing regular
// file. Like creat, BSD writes both the directory block and the
// updated inode synchronously.
func (fs *FS) Link(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("link", oldPath, fs.link(oldPath, newPath))
}

// link is Link without the lock, span, or error wrapping.
func (fs *FS) link(oldPath, newPath string) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall + fs.cfg.Costs.Create)
	in, err := fs.lookupFile(oldPath) // rejects directories
	if err != nil {
		return err
	}
	newDirParts, newBase, err := vfs.AppendDirBase(fs.parts[:0], newPath)
	if err != nil {
		return err
	}
	newParent, err := fs.resolveDir(1, newDirParts)
	if err != nil {
		return err
	}
	if _, exists, err := fs.dirs.Lookup(newParent, newBase); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %q", vfs.ErrExist, newPath)
	}
	dirBlk, _, err := fs.dirs.Insert(newParent, newBase, in.Ino)
	if err != nil {
		return err
	}
	if err := fs.writeBlockSync(dirBlk, "link: dir data"); err != nil {
		return err
	}
	in.Nlink++
	if err := fs.writeInode(in, true, "link: inode"); err != nil {
		return err
	}
	newParent.Mtime = int64(fs.clock.Now())
	if err := fs.writeInode(newParent, false, "link: dir inode"); err != nil {
		return err
	}
	return fs.maybeWriteback()
}

// Rename moves oldPath to newPath.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("rename", oldPath, fs.rename(oldPath, newPath))
}

// rename is Rename without the lock, span, or error wrapping.
func (fs *FS) rename(oldPath, newPath string) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall)
	oldDirParts, oldBase, err := vfs.AppendDirBase(fs.parts[:0], oldPath)
	if err != nil {
		return err
	}
	// Both splits are in use until both parents are resolved: the new
	// path's parts go behind the old one's.
	newDirParts, newBase, err := vfs.AppendDirBase(oldDirParts[len(oldDirParts):], newPath)
	if err != nil {
		return err
	}
	oldParent, err := fs.resolveDir(0, oldDirParts)
	if err != nil {
		return err
	}
	ino, found, err := fs.dirs.Lookup(oldParent, oldBase)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", vfs.ErrNotExist, oldPath)
	}
	in, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	if in.Mode.IsDir() && len(newPath) > len(oldPath) && newPath[:len(oldPath)+1] == oldPath+"/" {
		return fmt.Errorf("%w: cannot move %q inside itself", vfs.ErrInvalid, oldPath)
	}
	newParent, err := fs.resolveDir(1, newDirParts)
	if err != nil {
		return err
	}
	if _, exists, err := fs.dirs.Lookup(newParent, newBase); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %q", vfs.ErrExist, newPath)
	}
	// Insert first, then remove, so a crash between the two leaves
	// the file reachable (possibly twice) rather than lost. Both
	// directory blocks are written synchronously, as BSD does.
	insBlk, _, err := fs.dirs.Insert(newParent, newBase, ino)
	if err != nil {
		return err
	}
	if err := fs.writeBlockSync(insBlk, "rename: dir data"); err != nil {
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
		if err := fs.writeInode(newParent, false, "rename: dir inode"); err != nil {
			return err
		}
	}
	return fs.maybeWriteback()
}

// Truncate sets the file length.
func (fs *FS) Truncate(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("truncate", path, fs.truncate(path, size))
}

// truncate is Truncate without the lock, span, or error wrapping.
func (fs *FS) truncate(path string, size int64) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall)
	in, err := fs.lookupFile(path)
	if err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("%w: negative size %d", vfs.ErrInvalid, size)
	}
	if size > fs.maxFileSize() {
		return fmt.Errorf("%w: %q to %d bytes", vfs.ErrTooLarge, path, size)
	}
	if err := fs.truncateFile(in, size); err != nil {
		return err
	}
	in.Mtime = int64(fs.clock.Now())
	if err := fs.writeInode(in, false, "truncate: inode"); err != nil {
		return err
	}
	return fs.maybeWriteback()
}

// Sync writes all dirty cached blocks to disk and waits for them.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("sync", "/", fs.sync())
}

// sync is Sync without the lock, span, or error wrapping.
func (fs *FS) sync() error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall)
	if err := fs.writeback(true); err != nil {
		return err
	}
	// Waiting out the queued write-back transfers is commit wait.
	fs.op.DrainAs(obs.PhaseCommitWait)
	return nil
}

// Unmount syncs and detaches the file system.
func (fs *FS) Unmount() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("unmount", "/", fs.unmount())
}

// unmount is Unmount without the lock, span, or error wrapping.
func (fs *FS) unmount() error {
	if err := fs.sync(); err != nil {
		return err
	}
	fs.unmounted = true
	return nil
}
