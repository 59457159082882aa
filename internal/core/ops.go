package core

import (
	"fmt"

	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// FS implements vfs.FileSystem.
var _ vfs.FileSystem = (*FS)(nil)

// maxFileSize returns the double-indirect limit in bytes.
func (fs *FS) maxFileSize() int64 {
	return layout.MaxFileBlocks(fs.cfg.BlockSize) * int64(fs.cfg.BlockSize)
}

// createNode is the shared implementation of Create and Mkdir. In LFS
// this performs no disk I/O at all (Figure 2): the inode is allocated
// in the inode map, the directory block is modified in the cache, and
// everything rides the next segment write.
func (fs *FS) createNode(path string, isDir bool) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall + fs.cfg.Costs.Create)
	dirParts, base, err := vfs.AppendDirBase(fs.parts[:0], path)
	if err != nil {
		return err
	}
	parent, err := fs.resolveDir(dirParts)
	if err != nil {
		return err
	}
	if _, exists, err := fs.dirs.Lookup(parent, base); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %q", vfs.ErrExist, path)
	}
	if err := fs.admitBytes(int64(fs.cfg.BlockSize)); err != nil {
		return err
	}
	ino, err := fs.imap.allocNew()
	if err != nil {
		return fmt.Errorf("%w: %v", vfs.ErrNoSpace, err)
	}
	mode := layout.ModeFile | 0o644
	if isDir {
		mode = layout.ModeDir | 0o755
	}
	in := layout.NewInode(ino, mode)
	if isDir {
		in.Nlink = 2
	}
	now := int64(fs.clock.Now())
	in.Mtime, in.Ctime = now, now
	e := fs.imap.get(ino)
	in.Gen = e.Version
	fs.inodes.install(ino, in)
	fs.markInodeDirty(ino)
	e.Atime = fs.clock.Now()
	fs.imap.markDirty(ino)

	if err := fs.dirInsert(parent, base, ino); err != nil {
		return err
	}
	parent.Mtime = now
	fs.markInodeDirty(parent.Ino)
	return fs.epilogue()
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

// lookupFile resolves path to a regular file's in-core inode.
func (fs *FS) lookupFile(path string) (*layout.Inode, error) {
	parts, err := vfs.AppendPath(fs.parts[:0], path)
	if err != nil {
		return nil, err
	}
	in, err := fs.resolve(parts)
	if err != nil {
		return nil, err
	}
	if in.Mode.IsDir() {
		return nil, fmt.Errorf("%w: %q", vfs.ErrIsDir, path)
	}
	return in, nil
}

// Write stores data at off. Purely asynchronous: bursts of small
// writes accumulate in the cache and convert into large sequential
// segment transfers (§4.1).
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
	end := off + int64(len(data))
	if end > fs.maxFileSize() {
		return fmt.Errorf("%w: %q to %d bytes", vfs.ErrTooLarge, path, end)
	}
	if grow := end - int64(in.Size); grow > 0 {
		if err := fs.admitBytes(grow + int64(fs.cfg.BlockSize)); err != nil {
			return err
		}
	}
	if err := fs.writeFile(in, off, data); err != nil {
		return err
	}
	fs.stats.UserBytesWritten += int64(len(data))
	in.Mtime = int64(fs.clock.Now())
	fs.markInodeDirty(in.Ino)
	return fs.epilogue()
}

// Read fills buf from off. Access time is recorded in the inode map
// (footnote 2), so reading never relocates the inode.
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
	e := fs.imap.get(in.Ino)
	e.Atime = fs.clock.Now()
	fs.imap.markDirty(in.Ino)
	if err := fs.epilogue(); err != nil {
		return n, err
	}
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
	in, err := fs.resolve(parts)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	fi := vfs.FileInfo{
		Ino:   in.Ino,
		Mode:  in.Mode,
		Nlink: int(in.Nlink),
		Mtime: sim.Time(in.Mtime),
		Atime: fs.imap.peek(in.Ino).Atime,
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
	dir, err := fs.resolveDir(parts)
	if err != nil {
		return nil, err
	}
	return fs.dirs.Entries(dir)
}

// Remove unlinks a file or removes an empty directory — again with no
// synchronous I/O; the freed blocks become dead in the usage array
// and the version bump lets the cleaner discard them cheaply.
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
	parent, err := fs.resolveDir(dirParts)
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
	in, err := fs.getInode(ino)
	if err != nil {
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
	if _, err := fs.dirs.Remove(parent, base); err != nil {
		return err
	}
	if in.Mode.IsDir() {
		fs.dirs.Forget(ino)
	}
	// With other hard links remaining, only the link count drops;
	// the storage dies with the last name (when the version bump in
	// imap.free lets the cleaner discard the blocks).
	if !in.Mode.IsDir() && in.Nlink > 1 {
		in.Nlink--
		fs.markInodeDirty(ino)
	} else {
		if err := fs.removeFileBlocks(in); err != nil {
			return err
		}
		fs.killBlock(fs.imap.peek(ino).Addr, layout.InodeSize)
		fs.dropInode(ino)
		fs.imap.free(ino)
	}
	parent.Mtime = int64(fs.clock.Now())
	fs.markInodeDirty(parent.Ino)
	return fs.epilogue()
}

// Link creates a second directory entry for an existing regular
// file — like everything else in LFS, with no synchronous I/O: the
// dirtied directory block and inode ride the next segment write.
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
	newParent, err := fs.resolveDir(newDirParts)
	if err != nil {
		return err
	}
	if _, exists, err := fs.dirs.Lookup(newParent, newBase); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %q", vfs.ErrExist, newPath)
	}
	if err := fs.dirInsert(newParent, newBase, in.Ino); err != nil {
		return err
	}
	in.Nlink++
	fs.markInodeDirty(in.Ino)
	newParent.Mtime = int64(fs.clock.Now())
	fs.markInodeDirty(newParent.Ino)
	return fs.epilogue()
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
	oldParent, err := fs.resolveDir(oldDirParts)
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
	in, err := fs.getInode(ino)
	if err != nil {
		return err
	}
	if in.Mode.IsDir() && len(newPath) > len(oldPath) && newPath[:len(oldPath)+1] == oldPath+"/" {
		return fmt.Errorf("%w: cannot move %q inside itself", vfs.ErrInvalid, oldPath)
	}
	newParent, err := fs.resolveDir(newDirParts)
	if err != nil {
		return err
	}
	if _, exists, err := fs.dirs.Lookup(newParent, newBase); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %q", vfs.ErrExist, newPath)
	}
	if err := fs.dirInsert(newParent, newBase, ino); err != nil {
		return err
	}
	if _, err := fs.dirs.Remove(oldParent, oldBase); err != nil {
		return err
	}
	now := int64(fs.clock.Now())
	oldParent.Mtime = now
	newParent.Mtime = now
	fs.markInodeDirty(oldParent.Ino)
	fs.markInodeDirty(newParent.Ino)
	return fs.epilogue()
}

// Truncate sets the file length. Truncation to zero bumps the file's
// version in the inode map (§4.2.1).
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
	if grow := size - int64(in.Size); grow > 0 {
		if err := fs.admitBytes(grow); err != nil {
			return err
		}
	}
	wasNonEmpty := in.Size > 0
	if err := fs.truncateFile(in, size); err != nil {
		return err
	}
	if size == 0 && wasNonEmpty {
		fs.imap.bumpVersion(in.Ino)
		in.Gen = fs.imap.peek(in.Ino).Version
	}
	in.Mtime = int64(fs.clock.Now())
	fs.markInodeDirty(in.Ino)
	return fs.epilogue()
}

// FsyncFile forces one file's data and metadata to the log and waits
// for the disk — the fsync half of §4.3.5's "sync request" trigger.
// Like UNIX fsync it does not force the parent directory's entry; use
// Sync (or fsync the directory's path) for that.
func (fs *FS) FsyncFile(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("fsync", path, fs.fsyncFile(path))
}

// fsyncFile is FsyncFile without the lock, span, or error wrapping.
func (fs *FS) fsyncFile(path string) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall)
	parts, err := vfs.AppendPath(fs.parts[:0], path)
	if err != nil {
		return err
	}
	in, err := fs.resolve(parts)
	if err != nil {
		return err
	}
	ino := in.Ino
	if fs.cfg.GroupCommit {
		return fs.groupFsync(ino)
	}
	// This file's data blocks, then its indirect blocks.
	if err := fs.writeDirtyBlocks(ino); err != nil {
		return err
	}
	// Its inode, if dirty.
	if fs.inodes.isDirty(ino) {
		if err := fs.writeInodeBatchFor([]layout.Ino{ino}); err != nil {
			return err
		}
	}
	if err := fs.flushPendingIO(); err != nil {
		return err
	}
	fs.op.DrainAs(obs.PhaseCommitWait)
	return nil
}

// groupFsync is the Config.GroupCommit sync path: if the file still
// has dirty state, flush everything dirty in one log transfer (the
// group commit — every other client's pending data rides it); if an
// earlier group commit already carried this file's data, there is
// nothing to write and the sync merely waits for the disk (it
// piggybacks). With N clients interleaving writes and fsyncs, one
// segment transfer satisfies up to N sync requests, which is where
// multi-client throughput scaling comes from.
func (fs *FS) groupFsync(ino layout.Ino) error {
	if !fs.fileDirty(ino) {
		fs.stats.PiggybackedSyncs++
		// Whatever dispatch gap this fsync paid before it could run
		// was time parked behind the group commit that carried its
		// data — the follower's wait, not generic serialization — so
		// the pre-op lock_wait credit moves to piggyback_wait. (In the
		// event-driven sim the leader's drain advances the clock past
		// the transfer's end, so the drain below is usually free and
		// the dispatch gap holds the whole wait.)
		fs.op.Reclassify(obs.PhaseLockWait, obs.PhasePiggybackWait)
		fs.op.DrainAs(obs.PhasePiggybackWait)
		return nil
	}
	fs.stats.GroupCommits++
	if err := fs.flush(flushAll); err != nil {
		return err
	}
	fs.op.DrainAs(obs.PhaseCommitWait)
	return nil
}

// fileDirty reports whether the file has any state not yet written to
// the log: dirty data or indirect blocks — the only blocks LFS keys by
// an inode — or a dirty inode.
func (fs *FS) fileDirty(ino layout.Ino) bool {
	return fs.inodes.isDirty(ino) || fs.bc.InoDirty(ino)
}

// FlushAsync issues everything dirty to the log as asynchronous
// segment writes and returns without waiting for the disk. It is the
// cross-shard group-commit hook: when one shard of a sharded
// multi-log system must sync, the router calls FlushAsync on every
// other shard first, so all disks transfer in overlapping simulated
// time and each shard's own fsync then finds its data already in
// flight (it piggybacks). A clean file system returns immediately
// without charging CPU, so the broadcast costs nothing on idle
// shards. No operation span is recorded; the issued writes carry
// their usual log-append causes.
func (fs *FS) FlushAsync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkMounted(); err != nil {
		return vfs.WrapPathError("flush", "/", err)
	}
	if fs.inodes.nDirty == 0 && fs.bc.DirtyCount() == 0 {
		return nil
	}
	fs.cpu.Charge(fs.cfg.Costs.Syscall)
	return vfs.WrapPathError("flush", "/", fs.flush(flushAll))
}

// Sync forces a segment write of everything dirty and waits for the
// disk (§4.3.5 "sync request").
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
	if err := fs.flush(flushAll); err != nil {
		return err
	}
	fs.op.DrainAs(obs.PhaseCommitWait)
	return nil
}

// Unmount checkpoints and detaches; remounting is then instantaneous.
func (fs *FS) Unmount() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("unmount", "/", fs.unmount())
}

// unmount is Unmount without the lock, span, or error wrapping.
func (fs *FS) unmount() error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	if err := fs.checkpoint(); err != nil {
		return err
	}
	fs.op.DrainAs(obs.PhaseCommitWait)
	fs.unmounted = true
	return nil
}
