package core

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

// Stats counts LFS-internal activity for experiments and tools.
type Stats struct {
	// UnitsWritten counts log write units (partial segments).
	UnitsWritten int64
	// BlocksWritten counts blocks written through the log,
	// including summary blocks.
	BlocksWritten int64
	// SegmentsSealed counts segments filled and retired from the
	// active position.
	SegmentsSealed int64
	// Checkpoints counts checkpoint-region writes.
	Checkpoints int64
	// CleanerRuns counts cleaner activations.
	CleanerRuns int64
	// SegmentsCleaned counts segments reclaimed by the cleaner.
	SegmentsCleaned int64
	// CleanerBlocksExamined counts blocks whose liveness the
	// cleaner checked.
	CleanerBlocksExamined int64
	// CleanerLiveCopied counts live blocks the cleaner rewrote.
	CleanerLiveCopied int64
	// CleanerBytesReclaimed counts clean bytes generated.
	CleanerBytesReclaimed int64
	// RollForwardUnits counts log units recovered at mount.
	RollForwardUnits int64
	// UserBytesWritten counts bytes written through the Write API;
	// comparing it with BlocksWritten gives the log's write
	// amplification (metadata, summaries, and cleaner copies).
	UserBytesWritten int64
	// GroupCommits counts fsyncs that flushed the dirty set on behalf
	// of every waiting client (Config.GroupCommit).
	GroupCommits int64
	// PiggybackedSyncs counts fsyncs that found their file already
	// clean — their data rode an earlier group commit — and only
	// waited for the disk.
	PiggybackedSyncs int64
}

// WriteAmplification returns total log bytes written per user byte,
// given the block size; zero when nothing was written.
func (s Stats) WriteAmplification(blockSize int) float64 {
	if s.UserBytesWritten == 0 {
		return 0
	}
	return float64(s.BlocksWritten*int64(blockSize)) / float64(s.UserBytesWritten)
}

// FS is a mounted LFS instance implementing vfs.FileSystem. It is
// safe for concurrent use: a single mutex serialises all operations,
// which also matches the single-system-image timeline of the
// simulated clock (concurrent callers' operations interleave at
// operation granularity on one clock).
type FS struct {
	// Front is the VFS front end shared with FFS: the twelve operations'
	// lock, span, path walk and argument checks, over the hooks below
	// (ops.go).
	vfs.Front

	// mu serialises all operations. Fields documented "guarded by
	// mu" are enforced by lfslint's lockcheck pass: exported methods
	// must lock, unexported helpers run with the lock already held.
	mu sync.Mutex
	// d, cfg, sb, clock, cpu, and bc are set at mount and immutable
	// thereafter (the structures they point to do their own
	// serialisation under fs.mu).
	d   *disk.Disk
	cfg Config
	sb  superblock

	clock *sim.Clock
	cpu   *sim.CPU
	bc    *cache.Cache

	// imap is the inode map; guarded by mu.
	imap *imapTable
	// usage tracks per-segment live bytes and state; guarded by mu.
	usage []segUsage

	// inodes is the in-core inode table and the queue of dirty inodes
	// for the next segment write. Guarded by mu.
	inodes inodeTable

	// dirs is the directory layer shared with FFS (lookup, insert,
	// remove, listing, the name cache and insert hint). What LFS
	// supplies to it is getDataBlock: a directory block through the
	// block cache, or a fresh cached block when the directory grows.
	// Nothing is written synchronously — a block the layer dirties
	// rides the next segment write (Figure 2). Guarded by mu.
	dirs *vfs.Dirs
	// indirect is getIndirect, bound once for the pointer walk
	// (vfs.BlockPtr) so that no walk allocates.
	indirect vfs.IndirectFunc

	// heads are the active log positions, one per write class: the
	// hot head takes fresh application writes and metadata, the cold
	// head cleaner-relocated blocks (when Config.Segregation is on).
	// The hot head is always open; the cold head opens lazily on the
	// first relocation and closes if the log runs out of segments for
	// it. Guarded by mu.
	heads [numClasses]logHead

	// span is the transfer buffer of read-ahead and of inode-block
	// fetches, and during Mount of the inode map's blocks and of
	// roll-forward's probes and read-backs (six blocks); ckptBuf the
	// checkpoint region being encoded (Mount reads both regions into it);
	// wr is the segment writer's working memory and cl the cleaner's (its
	// victim and staging memory is allocated by the first clean). All are
	// reused so the steady state allocates none of them, and each is
	// consumed before the operation that filled it returns. Guarded by mu.
	span    []byte
	ckptBuf []byte
	wr      writerScratch
	cl      cleanerScratch

	// writeSerial numbers log units; ckptSerial numbers
	// checkpoints. Guarded by mu.
	writeSerial uint64
	ckptSerial  uint64
	lastCkpt    sim.Time

	// liveBytes is the sum of the usage array's live bytes;
	// cleanCount the number of clean segments. Guarded by mu.
	liveBytes  int64
	cleanCount int
	// pendingClean counts segPending segments: reclaimed by the
	// cleaner, reusable only after the next checkpoint. Guarded by
	// mu.
	pendingClean int

	// cleaning and unmounted are lifecycle flags; guarded by mu.
	cleaning  bool
	unmounted bool

	// stats holds the internal counters; guarded by mu.
	stats Stats

	// op is the operation seam: every exported VFS operation opens
	// with op.Begin and returns through op.End (in Front, and in
	// FsyncFile), which is where spans, phase attribution, op metrics
	// and *vfs.PathError wrapping happen (the recorder and sampler it
	// feeds are cfg.Trace and cfg.Metrics). Guarded by mu.
	op *obs.OpCapture
}

// newSkeleton builds an FS with empty state: every segment clean, an
// empty imap, the log positioned at segment 0.
func newSkeleton(d *disk.Disk, cfg Config, sb superblock) *FS {
	fs := &FS{
		d:           d,
		cfg:         cfg,
		sb:          sb,
		clock:       d.Clock(),
		cpu:         sim.NewCPU(cfg.MIPS, d.Clock()),
		bc:          cache.New(cfg.CacheBlocks, cfg.BlockSize),
		imap:        newImap(cfg.MaxInodes, cfg.BlockSize),
		usage:       make([]segUsage, sb.Segments),
		inodes:      inodeTable{max: layout.Ino(cfg.MaxInodes)},
		span:        make([]byte, readAheadBlocks*cfg.BlockSize),
		writeSerial: 1,
	}
	fs.dirs = vfs.NewDirs(fs.bc, fs.clock, cfg.BlockSize, fs.getDataBlock)
	fs.indirect = fs.getIndirect
	fs.op = obs.NewOpCapture(d, fs.cpu, cfg.Trace, cfg.Metrics)
	fs.Front = vfs.NewFront(&fs.mu, fs.op, fs.dirs, d, fs.cpu, fs.span, fs.hooks())
	fs.heads[classHot].open = true
	fs.usage[0].State = segActive
	fs.cleanCount = int(sb.Segments) - 1
	return fs
}

// NoteWait credits the next operation with wait time that elapsed
// before it entered the FS: the multi-client server notes scheduler
// dispatch gaps (PhaseLockWait), the shard router its fan-out
// broadcasts (PhaseFanout). The next span's start is backdated by the
// noted total, so its phase list still sums to its latency exactly.
func (fs *FS) NoteWait(kind obs.PhaseKind, d sim.Duration) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.NoteWait(kind, d)
}

// Disk returns the underlying device for experiment instrumentation.
func (fs *FS) Disk() *disk.Disk { return fs.d }

// SetShard labels this instance's spans and disk events with its
// 1-based shard ID; the shard router sets it once per shard at mount
// so sharded traces and per-cause busy time decompose per log. Zero
// restores unsharded labelling.
func (fs *FS) SetShard(id int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.op.SetShard(id)
}

// Clock returns the simulated clock.
func (fs *FS) Clock() *sim.Clock { return fs.clock }

// Stats returns a snapshot of internal counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// StatsSnapshot is a consistent copy of every statistics surface of a
// mounted FS — log counters, disk, cache, CPU, cleaner state, and the
// aggregated trace — taken atomically under the FS lock. Prefer it
// over reading the individual accessors: those each lock separately,
// so a workload running between two reads skews derived ratios.
type StatsSnapshot struct {
	// Time is the simulated time of the snapshot.
	Time sim.Time
	// Log holds the LFS-internal counters.
	Log Stats
	// Disk holds the device counters, including the busy-time
	// decomposition by I/O cause.
	Disk disk.Stats
	// Cache holds the file cache counters.
	Cache cache.Stats
	// CPUInstructions is the total simulated instructions charged.
	CPUInstructions int64
	// CleanSegments is the number of clean segments.
	CleanSegments int
	// LiveBytes is the live data in the log: the usage array's sum.
	LiveBytes int64
	// SegmentSize and BlockSize record the geometry the counters are
	// denominated in, so derived quantities (WriteCost) need no
	// config in hand.
	SegmentSize int
	BlockSize   int
	// Trace is the aggregated trace when a recorder is attached, nil
	// otherwise.
	Trace *obs.Aggregates
}

// WriteCost returns the paper's cleaning cost derived from the
// snapshot counters: (read + copied + new)/new over all cleaner
// activity, where every cleaned segment was read whole and new space
// is what remained after the live data was copied out. Zero when the
// cleaner has not run (no cleaning means no cleaning overhead) or
// generated no new space.
func (s StatsSnapshot) WriteCost() float64 {
	return obs.WriteCost(s.Log.SegmentsCleaned*int64(s.SegmentSize), s.Log.CleanerLiveCopied*int64(s.BlockSize))
}

// StatsSnapshot atomically captures all statistics surfaces.
func (fs *FS) StatsSnapshot() StatsSnapshot {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return StatsSnapshot{
		Time:            fs.clock.Now(),
		Log:             fs.stats,
		Disk:            fs.d.Stats(),
		Cache:           fs.bc.Stats(),
		CPUInstructions: fs.cpu.Instructions(),
		CleanSegments:   fs.cleanCount,
		LiveBytes:       fs.liveBytes,
		SegmentSize:     int(fs.sb.SegmentSize),
		BlockSize:       fs.cfg.BlockSize,
		Trace:           fs.cfg.Trace.Aggregates(),
	}
}

// CleanSegments returns the number of clean segments.
func (fs *FS) CleanSegments() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.cleanCount
}

// LiveBytes returns the live data in the log: the usage array's sum.
func (fs *FS) LiveBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.liveBytes
}

// SegmentUtilizations returns the live fraction of every non-clean,
// non-active segment — the distribution §5.3 of the paper poses as an
// open question for nonsynthetic workloads ("It is currently not
// known what the segment distribution looks like").
func (fs *FS) SegmentUtilizations() []float64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	segSize := float64(fs.sb.SegmentSize)
	var out []float64
	for i := range fs.usage {
		if fs.usage[i].State == segDirty {
			out = append(out, float64(fs.usage[i].Live)/segSize)
		}
	}
	return out
}

// Config returns the configuration the FS was mounted with.
func (fs *FS) Config() Config { return fs.cfg }

// DropCaches evicts all clean cached blocks and clean in-core inodes —
// the paper's between-phase "flush the file cache".
func (fs *FS) DropCaches() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.bc.DropClean()
	fs.inodes.dropClean(0)
}

// Crash simulates a machine crash: every volatile structure vanishes.
// Only what reached the disk (segments, checkpoint regions) survives;
// remounting runs crash recovery.
func (fs *FS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.bc.Clear()
	fs.inodes = inodeTable{}
	fs.unmounted = true
	fs.d.Sync() // no store helper its writes started outlives the incarnation
}

// LogCapacity returns the total byte capacity of the segment area.
func (fs *FS) LogCapacity() int64 { return fs.logCapacity() }

// logCapacity returns the total byte capacity of the segment area.
func (fs *FS) logCapacity() int64 {
	return int64(fs.sb.Segments) * int64(fs.sb.SegmentSize)
}

// killBlock marks nbytes at addr dead in the usage array (the block
// was overwritten, truncated, or relocated).
func (fs *FS) killBlock(addr layout.DiskAddr, nbytes int64) {
	fs.creditBlock(addr, -nbytes, 0)
}

// creditBlock adds n live bytes (fewer when n < 0) at addr to its
// segment and to their total, the one place either changes; both are
// exact, so nothing is clamped. A segment's Age is the modified time of
// its youngest data (§3.6), hence the max: relocations pass the victim's
// age, fresh writes now, debits and roll-forward's moves 0.
func (fs *FS) creditBlock(addr layout.DiskAddr, n int64, age sim.Time) {
	seg := fs.segOf(addr)
	if addr.IsNil() || seg < 0 {
		return
	}
	u := &fs.usage[seg]
	u.Live += n
	u.Age = max(u.Age, age)
	fs.liveBytes += n
}

// admitBytes checks the disk-space admission limit for newBytes of
// additional live data, counting data already dirty in the cache.
func (fs *FS) admitBytes(newBytes int64) error {
	dirty := int64(fs.bc.DirtyCount()) * int64(fs.cfg.BlockSize)
	//lfslint:allow floataccum admission limit is recomputed from integers on every call; the fraction never accumulates
	limit := int64(float64(fs.logCapacity()) * fs.cfg.MaxLiveFraction)
	if fs.liveBytes+dirty+newBytes > limit {
		return fmt.Errorf("%w: live data %d + %d would exceed limit %d",
			vfs.ErrNoSpace, fs.liveBytes+dirty, newBytes, limit)
	}
	return nil
}

// epilogue is LFS's vfs.Hooks.Epilogue, which Front runs after every
// operation that reads or changes a file: it triggers segment writes on
// cache pressure or write-back age (§4.3.5) and checkpoints on the
// checkpoint interval (§4.4.1).
func (fs *FS) epilogue() error {
	// "The file cache may request a segment write when it detects a
	// shortage of clean blocks": a segment write starts as soon as
	// a full segment of dirty data has accumulated. Flushing in
	// segment-sized increments keeps each flush's clean-segment
	// demand bounded (so the cleaner's reserve suffices) and keeps
	// hot clean blocks from being evicted under dirty pressure.
	dirtyBytes := int64(fs.bc.DirtyCount()) * int64(fs.cfg.BlockSize)
	if dirtyBytes >= int64(fs.cfg.SegmentSize) || fs.bc.Overfull() {
		if err := fs.flush(flushAll); err != nil {
			return err
		}
	} else if oldest, ok := fs.bc.OldestDirty(); ok && fs.clock.Now().Sub(oldest) >= cache.WritebackAge {
		if err := fs.flush(flushAll); err != nil {
			return err
		}
	}
	if fs.clock.Now().Sub(fs.lastCkpt) >= fs.cfg.CheckpointInterval {
		if err := fs.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// checkMounted fails operations on an unmounted FS.
func (fs *FS) checkMounted() error {
	if fs.unmounted {
		return vfs.ErrUnmounted
	}
	return nil
}
