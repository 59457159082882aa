package ffs

import (
	"fmt"
	"sync"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// FS is a mounted FFS instance implementing vfs.FileSystem. It is
// safe for concurrent use: a single mutex serialises all operations
// on the shared simulated clock.
type FS struct {
	// Front is the VFS front end shared with LFS: the twelve operations'
	// lock, span, path walk and argument checks, over the hooks FFS
	// supplies (ops.go).
	vfs.Front

	// mu serialises all operations; the mutable fields below are
	// guarded by it (enforced by lfslint's lockcheck pass: exported
	// methods lock, unexported helpers run with the lock held). The
	// handles d..lay are set at mount and immutable thereafter.
	mu    sync.Mutex
	d     *disk.Disk
	cfg   Config
	clock *sim.Clock
	cpu   *sim.CPU
	bc    *cache.Cache
	sb    superblock
	lay   diskLayout

	// freeBlocks and freeInodes track per-group free counts,
	// rebuilt from the bitmaps at mount. Guarded by mu.
	freeBlocks []int
	freeInodes []int
	// nextDirGroup rotates new directories across groups, FFS's
	// directory-spreading policy. Guarded by mu.
	nextDirGroup int
	// atimes holds in-core access times (classic UNIX updates atime
	// lazily; we keep it in memory and lose it on crash, which the
	// paper's workloads never observe). Guarded by mu.
	atimes map[layout.Ino]sim.Time
	// dirs is the directory layer shared with LFS (lookup, insert,
	// remove, listing, the name cache — SunOS's namei cache — and the
	// insert hint), fetching blocks through dirBlock. Guarded by mu.
	dirs *vfs.Dirs
	// indirect is getIndirect, bound once for the pointer walk
	// (vfs.BlockPtr) so that no walk allocates.
	indirect vfs.IndirectFunc
	// walked is where an operation's inode reads leave their records
	// (Front's slots) — two are in use at once at most: a parent
	// directory and a file, or two parents. FFS works on inode records
	// by value, and one handed to the directory layer, which reaches the
	// file system through a function value, would otherwise be
	// heap-allocated per call. Guarded by mu.
	walked [2]layout.Inode

	// unmounted is the lifecycle flag; guarded by mu.
	unmounted bool

	// op is the operation seam: Front opens every exported VFS
	// operation with op.Begin and returns through op.End (span, phases,
	// *vfs.PathError). Guarded by mu.
	op *obs.OpCapture
}

// NoteWait credits d of kind to the next operation's span: the caller
// (the multi-client event loop) observed the wait before the operation
// could start, so its span is backdated by it. Pure bookkeeping — the
// simulated timeline is unchanged.
func (fs *FS) NoteWait(kind obs.PhaseKind, d sim.Duration) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.NoteWait(kind, d)
}

// Mount opens a formatted FFS on the disk.
func Mount(d *disk.Disk, cfg Config) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Attach the trace recorder before the first read so mount-time
	// I/O is traced; the nil guard avoids storing a typed-nil
	// *obs.Recorder in the disk.Tracer interface.
	if cfg.Trace != nil {
		d.SetTracer(cfg.Trace)
	}
	buf := make([]byte, cfg.BlockSize)
	if err := d.ReadSectors(0, buf, disk.CauseRecovery, "mount: superblock"); err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return nil, err
	}
	if sb.BlockSize != uint32(cfg.BlockSize) {
		return nil, fmt.Errorf("ffs: superblock block size %d != config %d", sb.BlockSize, cfg.BlockSize)
	}
	fs := &FS{
		d:      d,
		cfg:    cfg,
		clock:  d.Clock(),
		cpu:    sim.NewCPU(cfg.MIPS, d.Clock()),
		bc:     cache.New(cfg.CacheBlocks, cfg.BlockSize),
		sb:     sb,
		lay:    newLayout(sb),
		atimes: make(map[layout.Ino]sim.Time),
	}
	// 4.3BSD's DIRBLKSIZ: a directory write changes one sector, so a
	// write torn at a sector boundary splits no entry from its count.
	fs.dirs = vfs.NewDirs(fs.bc, fs.clock, disk.SectorSize, fs.dirBlock)
	fs.indirect = fs.getIndirect
	// Route blocking-request waits into the op seam. Pure arithmetic
	// on durations the disk already computed — attaching the waiter
	// never perturbs the timeline. FFS has no metrics plane.
	fs.op = obs.NewOpCapture(d, fs.cpu, cfg.Trace, nil)
	d.SetWaiter(fs.op)
	fs.Front = vfs.NewFront(&fs.mu, fs.op, fs.dirs, d, fs.cpu, make([]byte, readAheadBlocks*cfg.BlockSize), fs.hooks())
	// Rebuild free counts from the bitmaps.
	fs.freeBlocks = make([]int, sb.Groups)
	fs.freeInodes = make([]int, sb.Groups)
	for g := 0; g < int(sb.Groups); g++ {
		bm, err := fs.getBlock(fs.lay.bitmapBlock(g), true, "mount: bitmap")
		if err != nil {
			return nil, err
		}
		for b := 0; b < int(sb.BlocksPerGroup); b++ {
			if !testBit(bm.Data, b) {
				fs.freeBlocks[g]++
			}
		}
		for i := 0; i < int(sb.InodesPerGroup); i++ {
			if !testBit(bm.Data[fs.lay.inodeBitmapOff:], i) {
				fs.freeInodes[g]++
			}
		}
	}
	return fs, nil
}

// Disk returns the underlying device, for experiment instrumentation.
func (fs *FS) Disk() *disk.Disk { return fs.d }

// Clock returns the simulated clock.
func (fs *FS) Clock() *sim.Clock { return fs.clock }

// StatsSnapshot is a consistent copy of the baseline's statistics
// surfaces, taken atomically under the FS lock.
type StatsSnapshot struct {
	// Time is the simulated time of the snapshot.
	Time sim.Time
	// Disk holds the device counters, including the busy-time
	// decomposition by I/O cause.
	Disk disk.Stats
	// Cache holds the buffer cache counters.
	Cache cache.Stats
	// CPUInstructions is the total simulated instructions charged.
	CPUInstructions int64
	// FreeSpace is the free data bytes.
	FreeSpace int64
	// Trace is the aggregated trace when a recorder is attached, nil
	// otherwise.
	Trace *obs.Aggregates
}

// StatsSnapshot atomically captures all statistics surfaces.
func (fs *FS) StatsSnapshot() StatsSnapshot {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var free int64
	for _, n := range fs.freeBlocks {
		free += int64(n)
	}
	return StatsSnapshot{
		Time:            fs.clock.Now(),
		Disk:            fs.d.Stats(),
		Cache:           fs.bc.Stats(),
		CPUInstructions: fs.cpu.Instructions(),
		FreeSpace:       free * int64(fs.cfg.BlockSize),
		Trace:           fs.cfg.Trace.Aggregates(),
	}
}

// DropCaches evicts all clean blocks, the paper's between-phase
// "flush the file cache" step.
func (fs *FS) DropCaches() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.bc.DropClean()
}

// Crash simulates a machine crash: the buffer cache (with all its
// dirty blocks) vanishes and the file system detaches. The disk keeps
// only what was actually written.
func (fs *FS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.bc.Clear()
	fs.unmounted = true
}

// blockKey returns the cache key of a physical block.
func blockKey(pb int64) cache.Key {
	return cache.Key{Kind: cache.KindMeta, Off: pb}
}

// getBlock returns the cached copy of physical block pb, reading it
// from disk when absent and load is true; with load false the block is
// assumed newly allocated and is returned zeroed.
func (fs *FS) getBlock(pb int64, load bool, label string) (*cache.Block, error) {
	if b := fs.bc.Get(blockKey(pb)); b != nil {
		fs.cpu.Charge(sim.CostBlockSetup)
		return b, nil
	}
	b := fs.bc.Add(blockKey(pb))
	fs.cpu.Charge(sim.CostBlockSetup)
	if load {
		fs.cpu.Charge(sim.CostDiskOpSetup)
		if err := fs.d.ReadSectors(fs.lay.sectorOf(pb), b.Data, disk.CauseReadMiss, label); err != nil {
			fs.bc.Remove(blockKey(pb))
			return nil, err
		}
	}
	return b, nil
}

// dirty marks a cached block modified at the current time.
func (fs *FS) dirty(b *cache.Block) {
	fs.bc.MarkDirty(b, fs.clock.Now())
}

// writeBlockSync forces the cached block to disk immediately with a
// blocking write — FFS's synchronous metadata update.
func (fs *FS) writeBlockSync(b *cache.Block, label string) error {
	fs.cpu.Charge(sim.CostDiskOpSetup)
	pb := b.Key.Off
	if err := fs.d.WriteSectors(fs.lay.sectorOf(pb), b.Data, true, disk.CauseSyncWrite, label); err != nil {
		return err
	}
	fs.bc.MarkClean(b)
	return nil
}

// writeback flushes dirty blocks: all of them when all is true,
// otherwise only those older than the write-back age. Blocks go out
// in dirtied (age) order, the behaviour of the era's update daemon;
// runs of adjacent blocks — which sequential writers produce
// naturally — coalesce into single transfers, but random writers pay
// a random seek per block, exactly the update-in-place cost Figure 4
// charges SunOS with. Writes are asynchronous; Sync drains afterwards.
func (fs *FS) writeback(all bool) error {
	now := fs.clock.Now()
	var victims []*cache.Block
	for _, b := range fs.bc.DirtyBlocks() {
		if all || now.Sub(b.DirtiedAt()) >= cache.WritebackAge {
			victims = append(victims, b)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	run := make([]byte, 0, fs.cfg.BlockSize*8)
	runStart := int64(-1)
	var runBlocks []*cache.Block
	flushRun := func() error {
		if len(runBlocks) == 0 {
			return nil
		}
		fs.cpu.Charge(sim.CostDiskOpSetup)
		if err := fs.d.WriteSectors(fs.lay.sectorOf(runStart), run, false, disk.CauseWriteback, "writeback"); err != nil {
			return err
		}
		for _, b := range runBlocks {
			fs.bc.MarkClean(b)
		}
		run = run[:0]
		runBlocks = runBlocks[:0]
		runStart = -1
		return nil
	}
	for _, b := range victims {
		pb := b.Key.Off
		if runStart >= 0 && pb != runStart+int64(len(runBlocks)) {
			if err := flushRun(); err != nil {
				return err
			}
		}
		if runStart < 0 {
			runStart = pb
		}
		run = append(run, b.Data...)
		runBlocks = append(runBlocks, b)
	}
	return flushRun()
}

// maybeWriteback is FFS's vfs.Hooks.Epilogue, which Front runs after
// every operation that reads or changes a file: the two background
// triggers, cache full and write-back age.
func (fs *FS) maybeWriteback() error {
	// Flush below full capacity so hot clean blocks (directories,
	// inode table blocks) are not forced out right before the
	// write-back frees the cache anyway.
	if fs.bc.AboveDirtyWatermark(0.90) || fs.bc.Overfull() {
		return fs.writeback(true)
	}
	if oldest, ok := fs.bc.OldestDirty(); ok {
		if fs.clock.Now().Sub(oldest) >= cache.WritebackAge {
			return fs.writeback(false)
		}
	}
	return nil
}

// --- inode access -----------------------------------------------------

// readInode fetches ino's record through the buffer cache.
func (fs *FS) readInode(ino layout.Ino) (layout.Inode, error) {
	if !fs.lay.validIno(ino) {
		return layout.Inode{}, fmt.Errorf("%w: inode %d out of range", vfs.ErrInvalid, ino)
	}
	b, err := fs.getBlock(fs.lay.inodeBlock(ino), true, "inode read")
	if err != nil {
		return layout.Inode{}, err
	}
	off := fs.lay.inodeOffsetInBlock(ino)
	raw := b.Data[off : off+inodeSlotSize]
	if layout.AllZero(raw) {
		return layout.Inode{}, nil // free slot
	}
	in, err := layout.DecodeInode(raw)
	if err != nil {
		return layout.Inode{}, fmt.Errorf("ffs: inode %d: %w", ino, err)
	}
	return in, nil
}

// writeInode stores ino's record; with sync true the containing table
// block is written to disk immediately (the creat/unlink path).
func (fs *FS) writeInode(in *layout.Inode, sync bool, label string) error {
	b, err := fs.getBlock(fs.lay.inodeBlock(in.Ino), true, "inode write")
	if err != nil {
		return err
	}
	in.Encode(b.Data[fs.lay.inodeOffsetInBlock(in.Ino):])
	if sync {
		return fs.writeBlockSync(b, label)
	}
	fs.dirty(b)
	return nil
}

// clearInode zeroes ino's record (freeing the slot).
func (fs *FS) clearInode(ino layout.Ino, sync bool, label string) error {
	b, err := fs.getBlock(fs.lay.inodeBlock(ino), true, "inode clear")
	if err != nil {
		return err
	}
	off := fs.lay.inodeOffsetInBlock(ino)
	for i := 0; i < inodeSlotSize; i++ {
		b.Data[off+i] = 0
	}
	if sync {
		return fs.writeBlockSync(b, label)
	}
	fs.dirty(b)
	return nil
}

// --- allocation -------------------------------------------------------

// allocInode allocates an inode, preferring the given group (the
// parent directory's group for files; a rotating group for new
// directories).
func (fs *FS) allocInode(prefGroup int, isDir bool) (layout.Ino, error) {
	groups := int(fs.sb.Groups)
	for i := 0; i < groups; i++ {
		g := (prefGroup + i) % groups
		if fs.freeInodes[g] == 0 {
			continue
		}
		bm, err := fs.getBlock(fs.lay.bitmapBlock(g), true, "bitmap")
		if err != nil {
			return 0, err
		}
		ibm := bm.Data[fs.lay.inodeBitmapOff:]
		for s := 0; s < int(fs.sb.InodesPerGroup); s++ {
			if !testBit(ibm, s) {
				setBit(ibm, s)
				fs.dirty(bm)
				fs.freeInodes[g]--
				if isDir {
					fs.nextDirGroup = (g + 1) % groups
				}
				return fs.lay.inoFor(g, s), nil
			}
		}
	}
	return 0, fmt.Errorf("%w: no free inodes", vfs.ErrNoSpace)
}

// freeInode releases an inode slot.
func (fs *FS) freeInode(ino layout.Ino) error {
	g := fs.lay.groupOf(ino)
	bm, err := fs.getBlock(fs.lay.bitmapBlock(g), true, "bitmap")
	if err != nil {
		return err
	}
	clearBit(bm.Data[fs.lay.inodeBitmapOff:], fs.lay.slotOf(ino))
	fs.dirty(bm)
	fs.freeInodes[g]++
	delete(fs.atimes, ino)
	fs.ForgetLocked(ino)
	return nil
}

// allocBlock allocates a data (or indirect) block, preferring the
// given group. It returns the physical block number.
func (fs *FS) allocBlock(prefGroup int) (int64, error) {
	groups := int(fs.sb.Groups)
	for i := 0; i < groups; i++ {
		g := (prefGroup + i) % groups
		if fs.freeBlocks[g] == 0 {
			continue
		}
		bm, err := fs.getBlock(fs.lay.bitmapBlock(g), true, "bitmap")
		if err != nil {
			return 0, err
		}
		for b := fs.lay.metaBlocks; b < int(fs.sb.BlocksPerGroup); b++ {
			if !testBit(bm.Data, b) {
				setBit(bm.Data, b)
				fs.dirty(bm)
				fs.freeBlocks[g]--
				return fs.lay.groupStart(g) + int64(b), nil
			}
		}
	}
	return 0, fmt.Errorf("%w: no free blocks", vfs.ErrNoSpace)
}

// freeBlock releases a physical block and drops any cached copy.
func (fs *FS) freeBlock(pb int64) error {
	g := fs.lay.blockToGroup(pb)
	if g < 0 || g >= int(fs.sb.Groups) {
		return fmt.Errorf("ffs: freeing block %d outside any group", pb)
	}
	bm, err := fs.getBlock(fs.lay.bitmapBlock(g), true, "bitmap")
	if err != nil {
		return err
	}
	idx := int(pb - fs.lay.groupStart(g))
	if !testBit(bm.Data, idx) {
		return fmt.Errorf("ffs: double free of block %d", pb)
	}
	clearBit(bm.Data, idx)
	fs.dirty(bm)
	fs.freeBlocks[g]++
	fs.bc.Remove(blockKey(pb))
	return nil
}

// FreeSpace returns the total free data bytes.
func (fs *FS) FreeSpace() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var blocks int64
	for _, n := range fs.freeBlocks {
		blocks += int64(n)
	}
	return blocks * int64(fs.cfg.BlockSize)
}
