package layout

import "fmt"

// BlockPath describes how a logical block number maps onto an inode's
// pointer tree: directly, through the single indirect block, or
// through the double indirect block.
type BlockPath struct {
	// Level is 0 (direct), 1 (single indirect), or 2 (double
	// indirect).
	Level int
	// Direct is the index into Inode.Direct when Level == 0.
	Direct int
	// Outer is the index into the double indirect block when
	// Level == 2.
	Outer int
	// Inner is the index into the (innermost) indirect block when
	// Level >= 1.
	Inner int
}

// Indirect block ids within a file: the role a block plays in the
// pointer tree. LFS keys its cached indirect blocks by them, because
// their addresses change on every rewrite.
const (
	// IndSingle is the single indirect block.
	IndSingle int64 = 0
	// IndDoubleOuter is the double indirect (outer) block.
	IndDoubleOuter int64 = 1
	// IndDoubleInner + k is the k-th inner block under the outer one.
	IndDoubleInner int64 = 2
)

// AddrsPerBlock returns how many DiskAddrs fit in one file system
// block.
func AddrsPerBlock(blockSize int) int { return blockSize / AddrSize }

// MaxFileBlocks returns the largest number of logical blocks a file
// may have under the given block size.
func MaxFileBlocks(blockSize int) int64 {
	apb := int64(AddrsPerBlock(blockSize))
	return NDirect + apb + apb*apb
}

// MapBlock computes the path to logical block lbn for the given block
// size. It fails when lbn exceeds what double indirection can address.
func MapBlock(lbn int64, blockSize int) (BlockPath, error) {
	if lbn < 0 {
		return BlockPath{}, fmt.Errorf("layout: negative logical block %d", lbn)
	}
	if lbn < NDirect {
		return BlockPath{Level: 0, Direct: int(lbn)}, nil
	}
	lbn -= NDirect
	apb := int64(AddrsPerBlock(blockSize))
	if lbn < apb {
		return BlockPath{Level: 1, Inner: int(lbn)}, nil
	}
	lbn -= apb
	if lbn < apb*apb {
		return BlockPath{Level: 2, Outer: int(lbn / apb), Inner: int(lbn % apb)}, nil
	}
	return BlockPath{}, fmt.Errorf("layout: logical block beyond double-indirect reach (max %d blocks)", MaxFileBlocks(blockSize))
}

// BlocksForSize returns the number of logical blocks needed to hold
// size bytes.
func BlocksForSize(size uint64, blockSize int) int64 {
	return int64((size + uint64(blockSize) - 1) / uint64(blockSize))
}
