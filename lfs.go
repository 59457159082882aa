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
	"fmt"
	"os"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/obs"
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
)

// Cleaning policies.
const (
	// CleanGreedy picks the least-utilised segments (the paper's
	// policy).
	CleanGreedy = core.CleanGreedy
	// CleanCostBenefit weights free space by data age.
	CleanCostBenefit = core.CleanCostBenefit
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

// CreateImage creates a disk image file at path for a volume of at
// least the given capacity and opens it as NewMemDisk's model of the
// paper's disk on a fresh clock: a new file of exactly
// ImageBytes(capacity) bytes, unwritten throughout, in place of
// whatever path held. Format it next.
func CreateImage(path string, capacity int64) (*Disk, error) {
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		return nil, err
	}
	return openImage(path, capacity)
}

// OpenImage opens the disk image at path at the file's own length, the
// one CreateImage gave it. A missing file, or a length that is not a
// whole disk (a truncated or foreign file), is refused before the image
// is opened, so OpenImage never creates or extends one.
func OpenImage(path string) (*Disk, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if n := info.Size(); n <= 0 || ImageBytes(n) != n {
		return nil, fmt.Errorf("image %s is %d bytes, not the length of a whole disk (truncated?)", path, n)
	}
	return openImage(path, info.Size())
}

// openImage opens path on the file store as a disk of at least capacity
// bytes, extending a shorter file with holes.
func openImage(path string, capacity int64) (*Disk, error) {
	geom := disk.GeometryForCapacity(capacity)
	store, err := disk.OpenStore(disk.StoreOptions{Backend: disk.BackendFile, Path: path, Capacity: geom.TotalBytes()})
	if err != nil {
		return nil, err
	}
	d, err := disk.New(store, geom, disk.WrenIVModel(), sim.NewClock())
	if err != nil {
		store.Close()
	}
	return d, err
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
// volume of the given capacity — what CreateImage creates. An image of
// any other length is not a whole disk.
func ImageBytes(capacity int64) int64 {
	return disk.GeometryForCapacity(capacity).TotalBytes()
}

// TreeSize returns the total bytes of regular files under root plus
// file and directory counts.
func TreeSize(fsys vfs.FileSystem, root string) (bytes int64, files, dirs int, err error) {
	return vfs.TreeSize(fsys, root)
}
