// Package ffs implements the comparison baseline of the paper: an
// update-in-place file system in the style of the BSD Fast File
// System as shipped in SunOS 4.0.3. Its defining behaviours — the ones
// Figures 1 and 3 of the paper measure — are:
//
//   - metadata is at fixed disk locations (inode tables and allocation
//     bitmaps inside cylinder groups), so creating or deleting a file
//     performs small *random* writes;
//   - the inode block and the directory data block are written
//     *synchronously* during creat/unlink to bound crash damage, so
//     application speed is coupled to disk latency;
//   - file data goes through the buffer cache with delayed write-back.
//
// Allocation follows FFS locality policy in miniature: an inode is
// placed in its parent directory's cylinder group, new directories are
// spread across groups, and data blocks prefer their inode's group.
// Crash recovery is a full-disk fsck scan (see fsck.go), the cost the
// paper contrasts with LFS's checkpoint mount.
package ffs

import (
	"fmt"

	"lfs/internal/obs"
	"lfs/internal/sim"
)

// Config carries the tunables of an FFS instance. The zero value is
// not valid; use DefaultConfig.
type Config struct {
	// BlockSize is the file system block size in bytes. SunOS used
	// 8 KB blocks (paper §5).
	BlockSize int
	// BlocksPerGroup is the size of one cylinder group in blocks,
	// including its bitmap and inode-table blocks.
	BlocksPerGroup int
	// InodesPerGroup is the number of inode slots per group.
	InodesPerGroup int
	// CacheBlocks is the buffer cache capacity in blocks. The
	// paper's machines used roughly 15 MB of file cache.
	CacheBlocks int
	// MIPS is the simulated CPU speed.
	MIPS float64
	// Trace, when non-nil, receives operation spans and cause-tagged
	// disk events; Mount registers it as the disk's tracer. It may be
	// the same recorder an LFS instance uses, for side-by-side traces
	// on one timeline.
	Trace *obs.Recorder
}

// DefaultConfig returns the configuration used in the paper's
// evaluation: 8 KB blocks, ~15 MB of cache, 30-second write-back, and
// the Sun-4/260 CPU rating.
func DefaultConfig() Config {
	return Config{
		BlockSize:      8192,
		BlocksPerGroup: 256, // 2 MB groups
		InodesPerGroup: 512,
		CacheBlocks:    1920, // ~15 MB at 8 KB
		MIPS:           sim.Sun4MIPS,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BlockSize <= 0 || c.BlockSize%512 != 0 {
		return fmt.Errorf("ffs: block size %d not a positive multiple of the sector size", c.BlockSize)
	}
	if c.BlocksPerGroup < 8 {
		return fmt.Errorf("ffs: blocks per group %d too small", c.BlocksPerGroup)
	}
	if c.InodesPerGroup <= 0 || c.InodesPerGroup%8 != 0 {
		return fmt.Errorf("ffs: inodes per group %d not a positive multiple of 8", c.InodesPerGroup)
	}
	if c.CacheBlocks <= 4 {
		return fmt.Errorf("ffs: cache of %d blocks too small", c.CacheBlocks)
	}
	if c.MIPS <= 0 {
		return fmt.Errorf("ffs: non-positive MIPS %v", c.MIPS)
	}
	// The per-group metadata (1 bitmap block + inode table) must
	// leave room for data blocks.
	if c.metaBlocksPerGroup() >= c.BlocksPerGroup {
		return fmt.Errorf("ffs: group metadata (%d blocks) fills the group (%d blocks)", c.metaBlocksPerGroup(), c.BlocksPerGroup)
	}
	return nil
}

// inodeTableBlocks returns the blocks occupied by one group's inode
// table.
func (c Config) inodeTableBlocks() int {
	bytes := c.InodesPerGroup * inodeSlotSize
	return (bytes + c.BlockSize - 1) / c.BlockSize
}

// metaBlocksPerGroup returns the per-group metadata overhead in
// blocks: the bitmap block plus the inode table.
func (c Config) metaBlocksPerGroup() int { return 1 + c.inodeTableBlocks() }
