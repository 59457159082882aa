// Package shard scales the storage manager out horizontally: it
// presents one vfs.FileSystem whose namespace is partitioned across N
// independent core.FS instances ("shards"), each owning its own log,
// cleaner, checkpoint regions, disk queue, and disk. The paper's
// single append point is exactly what flattens multi-client
// throughput — every client funnels through one log head and one
// cleaner — so the router splits the namespace instead of the log
// format: every shard's image is a complete, standalone LFS volume
// (see FORMAT.md), and SSDFS-style multi-log layouts are the
// precedent.
//
// Placement. A file lives on exactly one shard: a deterministic hash
// (FNV-1a) of its canonical absolute path. Directories are
// *replicated*: Mkdir broadcasts to every shard, so the parent chain of
// any file exists on its shard, and ReadDir merges every shard's
// entries (deduplicated by name, name-sorted).
//
// Renames and links resolve both paths: when they place on the same
// shard the operation delegates untouched; when they cross shards it
// fails with ErrCrossShard (wrapped in *vfs.PathError), because a
// log-structured shard cannot atomically move blocks it does not own.
// With more than one shard, renaming a directory is rejected the same
// way: its descendants would re-hash to other shards. That is the one
// rule that depends on the shard count; every operation takes the same
// path at one shard as at N.
//
// Inode numbers. Each shard numbers its inodes from 1, so the router
// reports shard i's inode ino as ino*N + i (Stat and ReadDir alike):
// unique across shards, and a shard's own number when N is 1. Format
// and Mount refuse a shard count whose numbers would not fit a
// layout.Ino.
//
// Determinism. The router holds no clock and charges no CPU: it is a
// pure function from path to shard, and all shards share one
// simulated clock (Mount enforces pointer equality). Every operation
// is executed by the single deterministic internal/sched loop in
// (sim.Time, seq) order, and each shard's on-disk image is a function
// of the operation subsequence routed to it — so same-seed runs
// produce byte-identical per-shard images for any shard count.
// Per-disk busy horizons still advance independently, which is where
// the scale-out comes from: N shards overlap their segment writes in
// simulated time while CPU charges remain the serial component.
package shard

import (
	"errors"
	"fmt"
	"sync"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// ErrCrossShard reports a two-path operation (Rename, Link) whose
// source and destination place on different shards, or a rename of a
// directory. Callers test it with errors.Is; the router
// wraps it in *vfs.PathError like every other operation error.
var ErrCrossShard = errors.New("operation crosses shard boundaries")

// Options shapes a sharded system. The shard count is the number of
// disks given to Format/Mount; the zero Options is valid.
type Options struct {
	// Base is the per-shard core configuration. Format and Mount use
	// it verbatim for every shard unless ShardConfig is set.
	Base core.Config
	// ShardConfig, when non-nil, derives shard i's configuration from
	// Base — the hook for attaching per-shard observability (a fresh
	// obs.Sampler or Recorder per shard; samplers bind to exactly one
	// instance). It is a mount-time hook: Format ignores it (layout
	// parameters must live in Base), and RecoverShard calls it again
	// for the shard's new incarnation, so it must hand out a fresh
	// sampler each call (or none).
	ShardConfig func(shard int, base core.Config) core.Config
}

// FS is the sharded multi-log file system: a router over N core.FS
// instances. It implements vfs.FileSystem (plus the FsyncFile,
// SetClient, Clock, TickMetrics, and DropCaches hooks the server and
// workload layers use), so everything that drives one LFS drives N.
type FS struct {
	// mu serialises router operations; shards is guarded by mu
	// (RecoverShard swaps entries in place). Each core.FS does its
	// own locking underneath.
	mu     sync.Mutex
	shards []*core.FS

	// disks, clock and opts are set at mount and immutable thereafter.
	disks []*disk.Disk
	clock *sim.Clock
	opts  Options

	// parked holds waits noted against the router before the next
	// operation (the event loop's dispatch gaps); the router records
	// no spans of its own, so on hands them to the executing shard.
	// Guarded by mu.
	parked obs.ParkedWaits

	// order and pending are byPending's buffers; rest is the tail of
	// order that issueRest, the home fsync's step (made once, at
	// mount), issues. So a fan-out allocates nothing. Guarded by mu.
	order, pending, rest []int
	issueRest            func()

	// parts is what the router splits an operation's path (Rename and
	// Link: both paths) into, so routing allocates nothing per call; the
	// shard splits the path again into memory of its own. Guarded by mu.
	parts []string
}

// NoteWait credits d of kind to the next routed operation's span.
func (fs *FS) NoteWait(kind obs.PhaseKind, d sim.Duration) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.parked.NoteWait(kind, d)
}

// on returns shard i for the call that carries a routed operation's
// name, first handing it the waits parked on the router so that call's
// span carries them. Every operation delegates through on; the
// router's own probes (the Stat in Remove and relink, the emptiness
// ReadDirs) use fs.shards directly and leave the waits for the call
// that follows. Must be called with fs.mu held.
func (fs *FS) on(i int) *core.FS {
	fs.parked.HandOff(fs.shards[i])
	return fs.shards[i]
}

// checkDisks validates the disk set, the shared clock, and that the
// router's largest inode number, MaxInodes*N + N-1, fits a layout.Ino.
func checkDisks(disks []*disk.Disk, opts Options) error {
	if len(disks) == 0 {
		return fmt.Errorf("shard: no disks")
	}
	if n := uint64(len(disks)); uint64(opts.Base.MaxInodes) >= (1<<32)/n {
		return fmt.Errorf("shard: %d shards of %d inodes number past a 32-bit inode number", n, opts.Base.MaxInodes)
	}
	clock := disks[0].Clock()
	for i, d := range disks {
		if d == nil {
			return fmt.Errorf("shard: disk %d is nil", i)
		}
		if d.Clock() != clock {
			return fmt.Errorf("shard: disk %d runs on its own clock; all shards must share one simulated clock", i)
		}
	}
	return nil
}

// shardConfig derives shard i's core configuration from the options.
func shardConfig(opts Options, i int) core.Config {
	cfg := opts.Base
	if opts.ShardConfig != nil {
		cfg = opts.ShardConfig(i, cfg)
	}
	return cfg
}

// Format formats every disk as an independent, standalone LFS volume
// — shard images carry no sharding metadata and any one of them
// mounts alone with core.Mount (see FORMAT.md).
func Format(disks []*disk.Disk, opts Options) error {
	if err := checkDisks(disks, opts); err != nil {
		return err
	}
	for i, d := range disks {
		// Formatting must not consume the per-shard observability
		// hooks: samplers bind once, at mount, so the ShardConfig hook
		// (which may mint a fresh sampler per call) stays unmade here
		// and the base config's wiring is stripped.
		cfg := opts.Base
		cfg.Trace, cfg.Metrics = nil, nil
		if err := core.Format(d, cfg); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Mount mounts every disk (running each shard's own crash recovery:
// checkpoint load plus roll-forward) and assembles the router. All
// disks must share one simulated clock, and N shards of
// Base.MaxInodes inodes must number within a layout.Ino.
func Mount(disks []*disk.Disk, opts Options) (*FS, error) {
	if err := checkDisks(disks, opts); err != nil {
		return nil, err
	}
	fs := &FS{
		shards:  make([]*core.FS, len(disks)),
		disks:   append([]*disk.Disk(nil), disks...),
		clock:   disks[0].Clock(),
		opts:    opts,
		parts:   make([]string, 0, vfs.PathDepth),
		order:   make([]int, 0, len(disks)),
		pending: make([]int, len(disks)),
	}
	fs.issueRest = func() { _ = fs.fanOut(fs.rest) }
	for i, d := range disks {
		sfs, err := core.Mount(d, shardConfig(opts, i))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		sfs.SetShard(i + 1)
		fs.shards[i] = sfs
	}
	return fs, nil
}

// NewMem formats and mounts a sharded system over n fresh
// memory-backed disks sharing one simulated clock, splitting
// totalCapacity evenly — the standard testbed constructor.
func NewMem(n int, totalCapacity int64, opts Options) (*FS, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: %d shards", n)
	}
	clock := sim.NewClock()
	disks := make([]*disk.Disk, n)
	for i := range disks {
		disks[i] = disk.NewMem(totalCapacity/int64(n), clock)
	}
	if err := Format(disks, opts); err != nil {
		return nil, err
	}
	return Mount(disks, opts)
}

// NumShards returns the shard count.
func (fs *FS) NumShards() int { return len(fs.disks) }

// Clock returns the simulated clock shared by every shard.
func (fs *FS) Clock() *sim.Clock { return fs.clock }

// Disk returns shard i's device, for experiment instrumentation and
// offline checking (core.Fsck per shard).
func (fs *FS) Disk(i int) *disk.Disk { return fs.disks[i] }

// ShardFS returns shard i's mounted core.FS — the current
// incarnation, so callers observe RecoverShard swaps.
func (fs *FS) ShardFS(i int) *core.FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.shards[i]
}

// ShardFor reports which shard owns path: the path hash. Directories,
// replicated on every shard, report their home shard (the one Stat
// serves them from).
func (fs *FS) ShardFor(path string) (int, error) {
	// Not under mu, so not into fs.parts: the array stays on the stack.
	var buf [vfs.PathDepth]string
	parts, err := vfs.AppendPath(buf[:0], path)
	if err != nil {
		return 0, err
	}
	return fs.place(parts), nil
}

// place maps a validated path to its owning shard.
func (fs *FS) place(parts []string) int {
	return int(hashPath(parts) % uint64(len(fs.disks)))
}

// hashPath is FNV-1a over the canonical path components. Hashing the
// split components (with a separator) rather than the raw string
// keeps equivalent spellings ("/a/b", "/a/b/") on one shard.
func hashPath(parts []string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= uint64('/')
		h *= prime64
	}
	return h
}

// RecoverShard brings shard i back after a crash or power cut: it
// clears any injected fault policy, thaws the device, and remounts
// the shard's volume — checkpoint load plus per-shard roll-forward —
// swapping the fresh incarnation into the router. Other shards are
// untouched; subsequent operations re-resolve through the router to
// the new instance. The shard's configuration is re-derived through
// Options.ShardConfig, so the new incarnation gets fresh
// observability hooks.
func (fs *FS) RecoverShard(i int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if i < 0 || i >= len(fs.disks) {
		return fmt.Errorf("shard: recover: no shard %d of %d", i, len(fs.disks))
	}
	d := fs.disks[i]
	d.SetFaultPolicy(nil)
	d.Thaw()
	sfs, err := core.Mount(d, shardConfig(fs.opts, i))
	if err != nil {
		return fmt.Errorf("shard %d: recover: %w", i, err)
	}
	sfs.SetShard(i + 1)
	fs.shards[i] = sfs
	return nil
}
