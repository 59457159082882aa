// Package lfs is a Go implementation of the LFS storage manager from
// Rosenblum & Ousterhout, "The LFS Storage Manager" (USENIX 1990): a
// log-structured file system that treats the disk as a segmented
// append-only log, together with the substrate the paper's evaluation
// needs — a simulated disk with an explicit service-time model, a
// buffer cache, and a BSD-FFS-style update-in-place baseline.
//
// # Quick start
//
//	d := lfs.NewMemDisk(64 << 20)
//	cfg := lfs.DefaultConfig()
//	if err := lfs.Format(d, cfg); err != nil { ... }
//	fs, err := lfs.Mount(d, cfg)
//	if err != nil { ... }
//	fs.Create("/hello")
//	fs.Write("/hello", 0, []byte("world"))
//	fs.Unmount()
//
// All time in this package is simulated: file systems charge CPU
// instructions at a configurable MIPS rating and the disk charges
// seek/rotation/transfer time, so the performance characteristics the
// paper measures (synchronous random I/O vs asynchronous sequential
// logging) are reproducible and deterministic. Read wall-clock-free
// timings from fs.Clock().
//
// The package root re-exports the pieces a user needs; the full
// implementations live in internal/ (internal/core is the
// log-structured storage manager itself).
package lfs

import (
	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/obs"
	"lfs/internal/shard"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// Core types re-exported from the implementation packages.
type (
	// FS is a mounted log-structured file system.
	FS = core.FS
	// Config carries LFS tunables (block size, segment size,
	// cleaning policy, checkpoint interval, ...).
	Config = core.Config
	// StatsSnapshot is an atomic copy of every statistics surface of
	// a mounted FS, from FS.StatsSnapshot.
	StatsSnapshot = core.StatsSnapshot
	// Disk is the simulated block device file systems run on.
	Disk = disk.Disk
	// TraceRecorder collects operation spans, cause-tagged disk
	// events, and cleaner activation records. Attach one through
	// Config.Trace (or BaselineConfig.Trace) before Mount.
	TraceRecorder = obs.Recorder
	// Clock is the simulated clock.
	Clock = sim.Clock
	// StoreOptions selects and configures a store backend for
	// NewDisk.
	StoreOptions = disk.StoreOptions
)

// Cleaning policies.
const (
	// CleanGreedy picks the least-utilised segments (the paper's
	// policy).
	CleanGreedy = core.CleanGreedy
	// CleanCostBenefit weights free space by data age.
	CleanCostBenefit = core.CleanCostBenefit
)

// Store backends, for StoreOptions.Backend.
const (
	// BackendFile is a sparse file-backed image.
	BackendFile = disk.BackendFile
	// BackendMmap is a memory-mapped file image (unix only).
	BackendMmap = disk.BackendMmap
)

// NewTraceRecorder returns an empty trace recorder, ready to be
// attached through Config.Trace.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// ErrNotExist reports a missing file or directory; test for it with
// errors.Is.
var ErrNotExist = vfs.ErrNotExist

// DefaultConfig returns the paper's evaluation configuration: 4 KB
// blocks, 1 MB segments, ~15 MB cache, 30-second write-back and
// checkpoint intervals, greedy cleaning, roll-forward recovery on.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewMemDisk returns a memory-backed simulated disk of at least the
// given capacity, modelled on the paper's CDC WREN IV (1.3 MB/s
// transfer bandwidth, 17.5 ms average seek) and driven by a fresh
// simulated clock.
func NewMemDisk(capacity int64) *Disk {
	return disk.NewMem(capacity, sim.NewClock())
}

// ParseStoreBackend maps a backend name ("mem", "cow", "file", "mmap")
// to its backend, for command-line flags.
func ParseStoreBackend(name string) (disk.StoreBackend, bool) {
	return disk.ParseStoreBackend(name)
}

// NewDisk builds a simulated disk of at least opts.Capacity bytes on
// the selected store backend, modelled on the paper's CDC WREN IV and
// driven by a fresh simulated clock. The backend never affects the
// simulation: timing, statistics, and image bytes are identical across
// backends — only persistence technology differs.
func NewDisk(opts StoreOptions) (*Disk, error) { return NewDiskWithClock(opts, sim.NewClock()) }

// OpenImage opens (or creates) a file-backed disk image, so volumes
// survive process restarts; used by the command-line tools. It is
// NewDisk with the file backend.
func OpenImage(path string, capacity int64) (*Disk, error) {
	return NewDisk(StoreOptions{Backend: BackendFile, Path: path, Capacity: capacity})
}

// Format initialises the disk as an empty log-structured file system.
func Format(d *Disk, cfg Config) error { return core.Format(d, cfg) }

// Mount attaches a formatted LFS volume, running crash recovery: the
// newest valid checkpoint is loaded and, unless disabled in the
// config, the log tail is rolled forward through the segment
// summaries.
func Mount(d *Disk, cfg Config) (*FS, error) { return core.Mount(d, cfg) }

// ImageConfig returns cfg with the geometry the superblock on d records.
func ImageConfig(d *Disk, cfg Config) (Config, error) { return core.ImageConfig(d, cfg) }

// Fsck mounts the volume (running normal crash recovery, subject to
// cfg.RollForward) and walks it with the consistency checker. It is
// the shared verification path of the lfsck tool and the crash-point
// test harness.
func Fsck(d *Disk, cfg Config) (*vfs.CheckReport, error) { return core.Fsck(d, cfg) }

// ImageBytes returns the size in bytes of a disk image file for a
// volume of the given capacity — what OpenImage creates. An image of
// any other length is not a whole disk.
func ImageBytes(capacity int64) int64 {
	return disk.GeometryForCapacity(capacity).TotalBytes()
}

// TreeSize returns the total bytes of regular files under root plus
// file and directory counts.
func TreeSize(fsys vfs.FileSystem, root string) (bytes int64, files, dirs int, err error) {
	return vfs.TreeSize(fsys, root)
}

// ShardOptions configures a sharded multi-log array (see DESIGN.md
// §12): the per-shard base Config and the per-shard observability
// hook.
type ShardOptions = shard.Options

// NewClock returns a fresh simulated clock, for assembling
// multi-device arrays on one timeline.
func NewClock() *Clock { return sim.NewClock() }

// NewDiskWithClock is NewDisk with a caller-provided clock, so the
// disks of a sharded array share one timeline (FormatSharded requires
// it).
func NewDiskWithClock(opts StoreOptions, clock *Clock) (*Disk, error) {
	geom := disk.GeometryForCapacity(opts.Capacity)
	opts.Capacity = geom.TotalBytes()
	store, err := disk.OpenStore(opts)
	if err != nil {
		return nil, err
	}
	return disk.New(store, geom, disk.WrenIVModel(), clock)
}

// FormatSharded formats every disk as an independent, standalone LFS
// volume; shard images carry no sharding metadata and any one of them
// mounts alone with Mount (see FORMAT.md).
func FormatSharded(disks []*Disk, opts ShardOptions) error { return shard.Format(disks, opts) }
