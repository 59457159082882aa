package vfs

import (
	"fmt"
	"sync"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

// Seam is what Front needs of a file system's op seam (obs.OpCapture,
// which imports this package and so cannot be named here): Begin opens
// an operation, End closes it and wraps its error as *PathError, and
// SetClient labels the operations that follow.
type Seam interface {
	Begin()
	End(op, path string, err error) error
	SetClient(id int)
}

// Hooks is what a file system supplies to Front, the way it supplies a
// DirBlockFunc to Dirs: only what LFS and FFS do differently. Each hook
// runs under the file system's lock, after Front has checked the
// operation's arguments.
type Hooks struct {
	// Mounted returns ErrUnmounted once the file system is detached.
	Mounted func() error
	// Inode returns inode ino in core. FFS reads records by value into
	// one of two slots, a walk's result staying in its slot until the
	// slot's next use; LFS ignores the slot.
	Inode func(slot int, ino layout.Ino) (*layout.Inode, error)
	// Atime returns ino's access time, for Stat.
	Atime func(ino layout.Ino) sim.Time
	// Indirect reaches the file's indirect blocks for the pointer walk
	// (BlockPtr).
	Indirect IndirectFunc
	// Find is the read path's one charged cache lookup of file block lbn:
	// the cached copy, or else the address the block lies at, nil for a
	// hole. LFS, whose cache knows a block by (ino, lbn), looks before it
	// maps; FFS, whose cache knows it by its physical block, maps first.
	Find func(in *layout.Inode, lbn int64) (*cache.Block, layout.DiskAddr, error)
	// Key names the cached copy of file block lbn, which lies at addr.
	Key func(in *layout.Inode, lbn int64, addr layout.DiskAddr) cache.Key
	// Accessed records that in was read: its access time.
	Accessed func(in *layout.Inode) error
	// Create makes base, a name parent lacks, a new file or directory.
	Create func(parent *layout.Inode, base string, isDir bool) error
	// Write stores data at off in the regular file in.
	Write func(in *layout.Inode, off int64, data []byte) error
	// Remove releases in, whose entry Front has just removed from
	// parent's directory block dirBlk.
	Remove func(parent, in *layout.Inode, dirBlk *cache.Block) error
	// Link names the regular file in newBase in newParent; Rename moves
	// ino there from oldBase in oldParent. newParent lacks newBase.
	Link   func(in, newParent *layout.Inode, newBase string) error
	Rename func(oldParent *layout.Inode, oldBase string, ino layout.Ino, newParent *layout.Inode, newBase string) error
	// Truncate sets the regular file in's length to size.
	Truncate func(in *layout.Inode, size int64) error
	// Sync writes everything dirty and waits for the disk; Unmount makes
	// the file system durable and detaches it.
	Sync, Unmount func() error
	// Epilogue ends every operation whose Accessed, Create, Write, Remove,
	// Link, Rename or Truncate hook succeeded: the write-back a dirty
	// cache or the 30 s age asks for, and LFS's checkpoint.
	Epilogue func() error
}

// Front is the VFS front end LFS and FFS share: the paper keeps UNIX's
// operations, inodes and directories and changes how blocks are found
// and written (§4.2), so everything above that — the lock, the op seam,
// the mounted check and system-call charge, the path walk, every
// argument check, the directory lookups and the read loop — is written
// once, and so is read-ahead. A file system embeds a Front and supplies
// its Hooks.
type Front struct {
	// mu is the file system's own lock, op its seam, dirs its directory
	// layer, d its disk and cpu its processor; all are set once by
	// NewFront.
	mu   sync.Locker
	op   Seam
	dirs *Dirs
	d    *disk.Disk
	cpu  *sim.CPU
	h    Hooks
	// bs is the block size and maxSize the double-indirect file size
	// limit in bytes.
	bs, maxSize int64
	// parts is what the operation's path (Rename: both paths) is split
	// into, PathDepth components of it in place, so the steady state
	// allocates none. Guarded by mu.
	parts []string
	// span is the read-ahead transfer buffer, as many blocks long as one
	// request may fetch; lastRead is each file's last-read block, for
	// detecting a sequential scan. Guarded by mu.
	span     []byte
	lastRead map[layout.Ino]int64
}

// NewFront returns the front end of a file system locked by mu,
// instrumented by op, reading d and charging cpu, over dirs.
// span is the read-ahead buffer; a file system may share it with
// transfers of its own that never fall between a read-ahead and the
// copy out of it.
func NewFront(mu sync.Locker, op Seam, dirs *Dirs, d *disk.Disk, cpu *sim.CPU, span []byte, h Hooks) Front {
	bs := dirs.bc.BlockSize()
	return Front{
		mu: mu, op: op, dirs: dirs, d: d, cpu: cpu, h: h,
		bs:       int64(bs),
		maxSize:  layout.MaxFileBlocks(bs) * int64(bs),
		parts:    make([]string, 0, PathDepth),
		span:     span,
		lastRead: make(map[layout.Ino]int64),
	}
}

// Dirs returns the directory layer, so its name cache can be inspected
// (Dirs.Complete, Check) between operations.
func (f *Front) Dirs() *Dirs {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dirs
}

// SetClient labels subsequent operations (their spans and the disk
// events they cause) with the issuing client's ID; the multi-client
// server sets it before each operation it dispatches. Zero restores
// unattributed traffic.
func (f *Front) SetClient(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.SetClient(id)
}

// LookupLocked walks path to its inode, for an operation the file
// system adds beside the twelve; the caller holds the lock.
func (f *Front) LookupLocked(path string) (*layout.Inode, error) {
	parts, err := AppendPath(f.parts[:0], path)
	if err != nil {
		return nil, err
	}
	return f.walk(0, parts)
}

// ForgetLocked drops ino's read history when the inode is freed, so a
// file that reuses the number does not inherit it; the caller holds the
// lock.
func (f *Front) ForgetLocked(ino layout.Ino) { delete(f.lastRead, ino) }

// Create makes a new empty regular file.
func (f *Front) Create(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	return f.op.End("create", path, f.create(path, false))
}

// Mkdir makes a new empty directory.
func (f *Front) Mkdir(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	return f.op.End("mkdir", path, f.create(path, true))
}

// Write stores data at off, growing the file as needed.
func (f *Front) Write(path string, off int64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	in, err := f.regular(path, off, off+int64(len(data)), "offset")
	if err == nil {
		err = f.epilogue(f.h.Write(in, off, data))
	}
	return f.op.End("write", path, err)
}

// Read fills buf from off.
func (f *Front) Read(path string, off int64, buf []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	n, err := f.read(path, off, buf)
	return n, f.op.End("read", path, err)
}

// Stat describes the file at path.
func (f *Front) Stat(path string) (FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	fi, err := f.stat(path)
	return fi, f.op.End("stat", path, err)
}

// ReadDir lists the directory in name order.
func (f *Front) ReadDir(path string) ([]layout.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	ents, err := f.readDir(path)
	return ents, f.op.End("readdir", path, err)
}

// Remove unlinks a file or removes an empty directory.
func (f *Front) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	return f.op.End("remove", path, f.remove(path))
}

// Link creates a second directory entry for an existing regular file.
func (f *Front) Link(oldPath, newPath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	return f.op.End("link", oldPath, f.link(oldPath, newPath))
}

// Rename moves oldPath to newPath.
func (f *Front) Rename(oldPath, newPath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	return f.op.End("rename", oldPath, f.rename(oldPath, newPath))
}

// Truncate sets the file length.
func (f *Front) Truncate(path string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	in, err := f.regular(path, size, size, "size")
	if err == nil {
		err = f.epilogue(f.h.Truncate(in, size))
	}
	return f.op.End("truncate", path, err)
}

// Sync forces everything dirty to disk and waits for it.
func (f *Front) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	err := f.enter(0)
	if err == nil {
		err = f.h.Sync()
	}
	return f.op.End("sync", "/", err)
}

// Unmount makes the file system durable and detaches it. It charges
// no system call of its own; a file system whose unmount is a sync
// charges one in its hook.
func (f *Front) Unmount() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op.Begin()
	err := f.h.Mounted()
	if err == nil {
		err = f.h.Unmount()
	}
	return f.op.End("unmount", "/", err)
}

// enter is every operation's prologue but Unmount's: the mounted check
// and the system-call charge, plus extra (Create or Unlink) for the
// operations that add or drop a name.
func (f *Front) enter(extra int64) error {
	if err := f.h.Mounted(); err != nil {
		return err
	}
	f.cpu.Charge(sim.CostSyscall + extra)
	return nil
}

// epilogue runs the file system's Epilogue after a hook that changed
// or read a file, unless the hook failed.
func (f *Front) epilogue(err error) error {
	if err != nil {
		return err
	}
	return f.h.Epilogue()
}

// inode fetches ino into slot. A directory entry naming a free inode is
// damage, not a file.
func (f *Front) inode(slot int, ino layout.Ino) (*layout.Inode, error) {
	in, err := f.h.Inode(slot, ino)
	if err != nil {
		return nil, err
	}
	if !in.Allocated() {
		return nil, fmt.Errorf("directory entry points at free inode %d", ino)
	}
	return in, nil
}

// walk resolves parts from the root into slot, charging each component.
func (f *Front) walk(slot int, parts []string) (*layout.Inode, error) {
	in, err := f.h.Inode(slot, layout.RootIno)
	if err != nil {
		return nil, err
	}
	for i, name := range parts {
		f.cpu.Charge(sim.CostPathComponent)
		if !in.Mode.IsDir() {
			return nil, fmt.Errorf("%w: %q", ErrNotDir, parts[:i])
		}
		ino, found, err := f.dirs.Lookup(in, name)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("%w: %q", ErrNotExist, parts[:i+1])
		}
		if in, err = f.inode(slot, ino); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// dir walks parts into slot and requires a directory.
func (f *Front) dir(slot int, parts []string) (*layout.Inode, error) {
	in, err := f.walk(slot, parts)
	if err != nil {
		return nil, err
	}
	if !in.Mode.IsDir() {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, parts)
	}
	return in, nil
}

// file walks path into slot 0 and requires a regular file.
func (f *Front) file(path string) (*layout.Inode, error) {
	in, err := f.LookupLocked(path)
	if err != nil {
		return nil, err
	}
	if in.Mode.IsDir() {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	return in, nil
}

// absent fails with ErrExist when dir holds name (path's last component).
func (f *Front) absent(dir *layout.Inode, name, path string) error {
	if _, exists, err := f.dirs.Lookup(dir, name); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %q", ErrExist, path)
	}
	return nil
}

// parent splits path into the parts scratch and walks its parent
// directory into slot, returning it with path's last component.
func (f *Front) parent(slot int, path string) (*layout.Inode, string, error) {
	dirParts, base, err := AppendDirBase(f.parts[:0], path)
	if err != nil {
		return nil, "", err
	}
	dir, err := f.dir(slot, dirParts)
	return dir, base, err
}

// create is Create and Mkdir below the seam.
func (f *Front) create(path string, isDir bool) error {
	if err := f.enter(sim.CostCreate); err != nil {
		return err
	}
	parent, base, err := f.parent(0, path)
	if err != nil {
		return err
	}
	if err := f.absent(parent, base, path); err != nil {
		return err
	}
	return f.epilogue(f.h.Create(parent, base, isDir))
}

// regular is the prologue of Write, Read and Truncate: path names a
// regular file, the range starts at a non-negative at (the offset or
// the size, named by what) and ends within the size limit.
func (f *Front) regular(path string, at, end int64, what string) (*layout.Inode, error) {
	if err := f.enter(0); err != nil {
		return nil, err
	}
	in, err := f.file(path)
	if err != nil {
		return nil, err
	}
	if at < 0 {
		return nil, fmt.Errorf("%w: negative %s %d", ErrInvalid, what, at)
	}
	if end > f.maxSize {
		return nil, fmt.Errorf("%w: %q to %d bytes", ErrTooLarge, path, end)
	}
	return in, nil
}

// read is Read below the seam. A read past the limit finds nothing, so
// its range has no end to check.
func (f *Front) read(path string, off int64, buf []byte) (int, error) {
	in, err := f.regular(path, off, 0, "offset")
	if err != nil {
		return 0, err
	}
	n, err := f.readFile(in, off, buf)
	if err != nil {
		return n, err
	}
	return n, f.epilogue(f.h.Accessed(in))
}

// readFile copies bytes [off, off+len(buf)) of in into buf, clamped to
// the file size, charging the copy.
func (f *Front) readFile(in *layout.Inode, off int64, buf []byte) (int, error) {
	size := int64(in.Size)
	if off >= size {
		return 0, nil
	}
	if max := size - off; int64(len(buf)) > max {
		buf = buf[:max]
	}
	read, last := 0, (off+int64(len(buf))-1)/f.bs
	for read < len(buf) {
		pos := off + int64(read)
		bo := pos % f.bs
		n := min(int(f.bs-bo), len(buf)-read)
		lbn := pos / f.bs
		data, err := f.block(in, lbn, int(last-lbn+1))
		if err != nil {
			return read, err
		}
		if data == nil {
			clear(buf[read : read+n]) // hole
		} else {
			copy(buf[read:read+n], data[bo:])
		}
		f.cpu.Charge(sim.CopyCost(n))
		read += n
	}
	return read, nil
}

// block returns the bytes of file block lbn for the read loop, nil for a
// hole, valid until the next cache insertion; want is how many blocks
// the read needs from lbn on. On a miss it fetches in one request those
// of them that lie contiguous on disk after lbn (clustering), and during
// a sequential scan up to a span of such blocks — the standard UNIX
// read-ahead both SunOS and Sprite performed. LFS lays a sequentially
// written file out contiguously in the log, FFS within a cylinder group;
// a file scattered by random writes gets no benefit.
func (f *Front) block(in *layout.Inode, lbn int64, want int) ([]byte, error) {
	sequential := lbn == 0 || f.lastRead[in.Ino]+1 == lbn
	f.lastRead[in.Ino] = lbn
	b, addr, err := f.h.Find(in, lbn)
	if b != nil {
		f.cpu.Charge(sim.CostBlockSetup)
		return b.Data, nil
	}
	if err != nil || addr.IsNil() {
		return nil, err
	}
	// Collect the physically contiguous successors not already cached.
	bs := int(f.bs)
	spb := layout.DiskAddr(bs / disk.SectorSize)
	maxLbn := layout.BlocksForSize(in.Size, bs)
	limit := min(want, len(f.span)/bs)
	if sequential {
		limit = len(f.span) / bs
	}
	run := 1
	for ; run < limit && lbn+int64(run) < maxLbn; run++ {
		p, err := BlockPtr(in, lbn+int64(run), bs, f.h.Indirect, false)
		if err != nil {
			return nil, err
		}
		next := p.Get()
		if next != addr+layout.DiskAddr(run)*spb || f.dirs.bc.Peek(f.h.Key(in, lbn+int64(run), next)) != nil {
			break
		}
	}
	f.cpu.Charge(sim.CostBlockSetup + sim.CostDiskOpSetup)
	span := f.span[:run*bs]
	if err := f.d.ReadSectors(int64(addr), span, disk.CauseReadMiss, "file read"); err != nil {
		return nil, err
	}
	first := f.dirs.bc.AddFrom(f.h.Key(in, lbn, addr), span[:bs])
	for i := 1; i < run; i++ {
		f.dirs.bc.AddFrom(f.h.Key(in, lbn+int64(i), addr+layout.DiskAddr(i)*spb), span[i*bs:(i+1)*bs])
	}
	if first.Data == nil {
		// Fewer than run blocks were evictable (a cache smaller than the
		// run, or mostly dirty), so inserting the tail evicted the head:
		// the span still holds the caller's bytes.
		return span[:bs], nil
	}
	return first.Data, nil
}

// stat is Stat below the seam.
func (f *Front) stat(path string) (FileInfo, error) {
	if err := f.enter(0); err != nil {
		return FileInfo{}, err
	}
	in, err := f.LookupLocked(path)
	if err != nil {
		return FileInfo{}, err
	}
	fi := FileInfo{
		Ino:   in.Ino,
		Mode:  in.Mode,
		Nlink: int(in.Nlink),
		Mtime: sim.Time(in.Mtime),
		Atime: f.h.Atime(in.Ino),
	}
	if !in.Mode.IsDir() {
		fi.Size = int64(in.Size)
	}
	return fi, nil
}

// readDir is ReadDir below the seam.
func (f *Front) readDir(path string) ([]layout.DirEntry, error) {
	if err := f.enter(0); err != nil {
		return nil, err
	}
	parts, err := AppendPath(f.parts[:0], path)
	if err != nil {
		return nil, err
	}
	dir, err := f.dir(0, parts)
	if err != nil {
		return nil, err
	}
	return f.dirs.Entries(dir)
}

// remove is Remove below the seam: the target is found, a directory must
// be empty, and its entry goes before the file system releases it.
func (f *Front) remove(path string) error {
	if err := f.enter(sim.CostUnlink); err != nil {
		return err
	}
	parent, base, err := f.parent(0, path)
	if err != nil {
		return err
	}
	ino, found, err := f.dirs.Lookup(parent, base)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	in, err := f.inode(1, ino)
	if err != nil {
		return err
	}
	if in.Mode.IsDir() {
		empty, err := f.dirs.Empty(in)
		if err != nil {
			return err
		}
		if !empty {
			return fmt.Errorf("%w: %q", ErrNotEmpty, path)
		}
	}
	dirBlk, err := f.dirs.Remove(parent, base)
	if err != nil {
		return err
	}
	if in.Mode.IsDir() {
		f.dirs.Forget(ino)
	}
	return f.epilogue(f.h.Remove(parent, in, dirBlk))
}

// link is Link below the seam.
func (f *Front) link(oldPath, newPath string) error {
	if err := f.enter(sim.CostCreate); err != nil {
		return err
	}
	in, err := f.file(oldPath) // rejects directories
	if err != nil {
		return err
	}
	newParent, newBase, err := f.parent(1, newPath)
	if err != nil {
		return err
	}
	if err := f.absent(newParent, newBase, newPath); err != nil {
		return err
	}
	return f.epilogue(f.h.Link(in, newParent, newBase))
}

// rename is Rename below the seam.
func (f *Front) rename(oldPath, newPath string) error {
	if err := f.enter(0); err != nil {
		return err
	}
	oldDirParts, oldBase, err := AppendDirBase(f.parts[:0], oldPath)
	if err != nil {
		return err
	}
	// Both splits are in use until both parents are resolved: the new
	// path's parts go behind the old one's.
	newDirParts, newBase, err := AppendDirBase(oldDirParts[len(oldDirParts):], newPath)
	if err != nil {
		return err
	}
	oldParent, err := f.dir(0, oldDirParts)
	if err != nil {
		return err
	}
	ino, found, err := f.dirs.Lookup(oldParent, oldBase)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrNotExist, oldPath)
	}
	// The moved inode is read for its mode only: the new parent's walk
	// takes its slot next.
	in, err := f.inode(1, ino)
	if err != nil {
		return err
	}
	if in.Mode.IsDir() && within(newDirParts, oldDirParts, oldBase) {
		return fmt.Errorf("%w: cannot move %q inside itself", ErrInvalid, oldPath)
	}
	newParent, err := f.dir(1, newDirParts)
	if err != nil {
		return err
	}
	if err := f.absent(newParent, newBase, newPath); err != nil {
		return err
	}
	return f.epilogue(f.h.Rename(oldParent, oldBase, ino, newParent, newBase))
}
