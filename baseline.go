package lfs

import (
	"lfs/internal/ffs"
	"lfs/internal/vfs"
)

// The paper compares LFS against SunOS 4.0.3's BSD Fast File System.
// The baseline lives in internal/ffs and is exposed here so callers
// can reproduce the comparisons.

type (
	// BaselineFS is a mounted FFS-style update-in-place file
	// system — the comparison system of the paper's evaluation.
	BaselineFS = ffs.FS
	// BaselineConfig carries FFS tunables.
	BaselineConfig = ffs.Config
)

// DefaultBaselineConfig returns the paper's SunOS configuration: 8 KB
// blocks, ~15 MB cache, synchronous metadata writes, 30-second
// delayed write-back.
func DefaultBaselineConfig() BaselineConfig { return ffs.DefaultConfig() }

// FormatBaseline initialises the disk as an empty FFS.
func FormatBaseline(d *Disk, cfg BaselineConfig) error { return ffs.Format(d, cfg) }

// MountBaseline attaches a formatted FFS volume.
func MountBaseline(d *Disk, cfg BaselineConfig) (*BaselineFS, error) { return ffs.Mount(d, cfg) }

// FsckBaseline runs the BSD-style full-disk scan whose cost the
// paper's instant checkpoint recovery eliminates.
func FsckBaseline(d *Disk, cfg BaselineConfig) (*vfs.CheckReport, error) { return ffs.Fsck(d, cfg) }
