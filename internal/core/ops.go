package core

import (
	"fmt"

	"lfs/internal/cache"
	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// FS implements vfs.FileSystem.
var _ vfs.FileSystem = (*FS)(nil)

// hooks is what LFS supplies to the shared front end (vfs.Front): the
// twelve operations' LFS halves, each run after Front has walked the
// path and checked the arguments.
func (fs *FS) hooks() vfs.Hooks {
	return vfs.Hooks{
		Mounted:  fs.checkMounted,
		Inode:    func(_ int, ino layout.Ino) (*layout.Inode, error) { return fs.getInode(ino) },
		Atime:    func(ino layout.Ino) sim.Time { return fs.imap.peek(ino).Atime },
		Indirect: fs.indirect,
		Find:     fs.findData,
		Key:      func(in *layout.Inode, lbn int64, _ layout.DiskAddr) cache.Key { return dataKey(in.Ino, lbn) },
		Accessed: fs.accessed,
		Create:   fs.createNode,
		Write:    fs.write,
		Remove:   fs.remove,
		Link:     fs.link,
		Rename:   fs.rename,
		Truncate: fs.truncate,
		Sync:     fs.sync,
		Unmount:  fs.unmount,
		Epilogue: fs.epilogue,
	}
}

// createNode is Create and Mkdir. In LFS this performs no disk I/O at
// all (Figure 2): the inode is allocated in the inode map, the
// directory block is modified in the cache, and everything rides the
// next segment write.
func (fs *FS) createNode(parent *layout.Inode, base string, isDir bool) error {
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

	if _, _, err := fs.dirs.Insert(parent, base, ino); err != nil {
		return err
	}
	parent.Mtime = now
	fs.markInodeDirty(parent.Ino)
	return nil
}

// write stores data at off. Purely asynchronous: bursts of small
// writes accumulate in the cache and convert into large sequential
// segment transfers (§4.1).
func (fs *FS) write(in *layout.Inode, off int64, data []byte) error {
	if grow := off + int64(len(data)) - int64(in.Size); grow > 0 {
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
	return nil
}

// accessed records a read. Access time is kept in the inode map
// (footnote 2), so reading never relocates the inode.
func (fs *FS) accessed(in *layout.Inode) error {
	e := fs.imap.get(in.Ino)
	e.Atime = fs.clock.Now()
	fs.imap.markDirty(in.Ino)
	return nil
}

// remove releases an unlinked file or removed directory — again with no
// synchronous I/O; the freed blocks become dead in the usage array and
// the version bump lets the cleaner discard them cheaply.
func (fs *FS) remove(parent, in *layout.Inode, _ *cache.Block) error {
	// With other hard links remaining, only the link count drops;
	// the storage dies with the last name (when the version bump in
	// imap.free lets the cleaner discard the blocks).
	if ino := in.Ino; !in.Mode.IsDir() && in.Nlink > 1 {
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
	return nil
}

// link adds a second directory entry for a regular file — like
// everything else in LFS, with no synchronous I/O: the dirtied
// directory block and inode ride the next segment write.
func (fs *FS) link(in, newParent *layout.Inode, newBase string) error {
	if _, _, err := fs.dirs.Insert(newParent, newBase, in.Ino); err != nil {
		return err
	}
	in.Nlink++
	fs.markInodeDirty(in.Ino)
	newParent.Mtime = int64(fs.clock.Now())
	fs.markInodeDirty(newParent.Ino)
	return nil
}

// rename moves the entry between the two parents in the cache.
func (fs *FS) rename(oldParent *layout.Inode, oldBase string, ino layout.Ino, newParent *layout.Inode, newBase string) error {
	if _, _, err := fs.dirs.Insert(newParent, newBase, ino); err != nil {
		return err
	}
	// Queued before the removal, which may fail: a directory the insert
	// grew has a new size for the next segment write to carry.
	fs.markInodeDirty(newParent.Ino)
	if _, err := fs.dirs.Remove(oldParent, oldBase); err != nil {
		return err
	}
	now := int64(fs.clock.Now())
	oldParent.Mtime = now
	newParent.Mtime = now
	fs.markInodeDirty(oldParent.Ino)
	return nil
}

// truncate sets the file length. Truncation to zero bumps the file's
// version in the inode map (§4.2.1).
func (fs *FS) truncate(in *layout.Inode, size int64) error {
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
	return nil
}

// FsyncFile forces one file's data and metadata to the log and waits
// for the disk — the fsync half of §4.3.5's "sync request" trigger.
// Like UNIX fsync it does not force the parent directory's entry; use
// Sync (or fsync the directory's path) for that.
func (fs *FS) FsyncFile(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("fsync", path, fs.fsyncFile(path, nil))
}

// FsyncFileWith is FsyncFile that runs during, if non-nil, between
// issuing the commit and waiting for it, whatever the commit's outcome:
// the shard router starts the other shards' transfers there. Its clock
// advance is the span's fanout_wait. It must not call back into fs.
func (fs *FS) FsyncFileWith(path string, during func()) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.Begin()
	return fs.op.End("fsync", path, fs.fsyncFile(path, during))
}

// fsyncFile is FsyncFileWith without the lock, span, or error wrapping.
func (fs *FS) fsyncFile(path string, during func()) error {
	wait, err := fs.issueFsync(path)
	if during != nil {
		t0 := fs.op.Bracket()
		during()
		fs.op.EndBracket(t0, obs.PhaseFanout)
	}
	if err != nil {
		return err
	}
	fs.op.DrainAs(wait)
	return nil
}

// issueFsync issues the file's commit and returns the phase kind the
// wait for it is charged to.
func (fs *FS) issueFsync(path string) (obs.PhaseKind, error) {
	if err := fs.checkMounted(); err != nil {
		return 0, err
	}
	fs.cpu.Charge(sim.CostSyscall)
	in, err := fs.LookupLocked(path)
	if err != nil {
		return 0, err
	}
	ino := in.Ino
	fs.wr.commit = true
	defer func() { fs.wr.commit = false }()
	if fs.cfg.GroupCommit {
		return fs.groupFsync(ino)
	}
	// This file's data blocks, then its indirect blocks.
	if err := fs.writeDirtyBlocks(ino); err != nil {
		return 0, err
	}
	// Its inode, if dirty.
	if fs.inodes.isDirty(ino) {
		if err := fs.writeInodeBatchFor([]layout.Ino{ino}, nil); err != nil {
			return 0, err
		}
	}
	return obs.PhaseCommitWait, fs.flushPendingIO()
}

// groupFsync is the Config.GroupCommit sync path: if the file still
// has dirty state, flush everything dirty in one log transfer (the
// group commit — every other client's pending data rides it); if an
// earlier group commit already carried this file's data, there is
// nothing to write and the sync merely waits for the disk (it
// piggybacks). With N clients interleaving writes and fsyncs, one
// segment transfer satisfies up to N sync requests, which is where
// multi-client throughput scaling comes from. It returns the kind of
// the wait to follow.
func (fs *FS) groupFsync(ino layout.Ino) (obs.PhaseKind, error) {
	if !fs.fileDirty(ino) {
		fs.stats.PiggybackedSyncs++
		// Whatever dispatch gap this fsync paid before it could run
		// was time parked behind the group commit that carried its
		// data — the follower's wait, not generic serialization — so
		// the pre-op lock_wait credit moves to piggyback_wait. (In the
		// event-driven sim the leader's drain advances the clock past
		// the transfer's end, so the drain is usually free and the
		// dispatch gap holds the whole wait.)
		fs.op.Reclassify(obs.PhaseLockWait, obs.PhasePiggybackWait)
		return obs.PhasePiggybackWait, nil
	}
	fs.stats.GroupCommits++
	return obs.PhaseCommitWait, fs.flush(flushAll)
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
// other shard around its fsync, so all disks transfer in overlapping
// simulated time and each shard's own fsync then finds its data
// already in flight (it piggybacks). A clean file system returns
// immediately without charging CPU, so the broadcast costs nothing on
// idle shards. No operation span is recorded; the issued writes carry
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
	fs.cpu.Charge(sim.CostSyscall)
	fs.wr.commit = true
	defer func() { fs.wr.commit = false }()
	return vfs.WrapPathError("flush", "/", fs.flush(flushAll))
}

// Pending reports the work a flush would issue now: dirty cache
// blocks plus dirty inodes. The shard router orders its fan-out by it.
func (fs *FS) Pending() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.inodes.nDirty + fs.bc.DirtyCount()
}

// sync forces a segment write of everything dirty and waits for the
// disk (§4.3.5 "sync request").
func (fs *FS) sync() error {
	if err := fs.flush(flushAll); err != nil {
		return err
	}
	fs.op.DrainAs(obs.PhaseCommitWait)
	return nil
}

// unmount checkpoints and detaches; remounting is then instantaneous.
func (fs *FS) unmount() error {
	if err := fs.checkpoint(); err != nil {
		return err
	}
	fs.op.DrainAs(obs.PhaseCommitWait)
	fs.unmounted = true
	return nil
}
