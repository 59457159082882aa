package core

import (
	"encoding/binary"
	"fmt"

	"lfs/internal/disk"
	"lfs/internal/layout"
)

// lfsMagic identifies an LFS superblock.
const lfsMagic = 0x4C465331 // "LFS1"

// imapEntrySize is the on-disk size of one inode map entry: disk
// address (4), slot-in-sector (1), flags (1), padding (2), version
// (4), access time (8), and 4 spare bytes.
const imapEntrySize = 24

// superblock is the static description of an LFS volume, stored at
// sector 0 and never rewritten after Format.
type superblock struct {
	BlockSize   uint32
	SegmentSize uint32
	MaxInodes   uint32
	Segments    uint32
	CkptBytes   uint32 // size of each checkpoint region
	Ckpt0Sector uint32
	Ckpt1Sector uint32
	SegStart    uint32 // first sector of segment 0
}

func (sb *superblock) encode(p []byte) {
	clear(p)
	le := binary.LittleEndian
	le.PutUint32(p[0:], lfsMagic)
	le.PutUint32(p[4:], sb.BlockSize)
	le.PutUint32(p[8:], sb.SegmentSize)
	le.PutUint32(p[12:], sb.MaxInodes)
	le.PutUint32(p[16:], sb.Segments)
	le.PutUint32(p[20:], sb.CkptBytes)
	le.PutUint32(p[24:], sb.Ckpt0Sector)
	le.PutUint32(p[28:], sb.Ckpt1Sector)
	le.PutUint32(p[32:], sb.SegStart)
	le.PutUint32(p[60:], layout.Checksum(p[:60]))
}

func decodeSuperblock(p []byte) (superblock, error) {
	if len(p) < 64 {
		return superblock{}, fmt.Errorf("lfs: superblock truncated: %d bytes", len(p))
	}
	le := binary.LittleEndian
	if le.Uint32(p[0:]) != lfsMagic {
		return superblock{}, fmt.Errorf("lfs: bad magic %#x", le.Uint32(p[0:]))
	}
	if got, want := layout.Checksum(p[:60]), le.Uint32(p[60:]); got != want {
		return superblock{}, fmt.Errorf("lfs: superblock checksum mismatch")
	}
	return superblock{
		BlockSize:   le.Uint32(p[4:]),
		SegmentSize: le.Uint32(p[8:]),
		MaxInodes:   le.Uint32(p[12:]),
		Segments:    le.Uint32(p[16:]),
		CkptBytes:   le.Uint32(p[20:]),
		Ckpt0Sector: le.Uint32(p[24:]),
		Ckpt1Sector: le.Uint32(p[28:]),
		SegStart:    le.Uint32(p[32:]),
	}, nil
}

// readSuperblock reads the first n bytes of the volume on d and decodes
// its superblock. A volume whose segment area ends past the end of d is
// refused: d is not the disk it was formatted on, or not all of it.
func readSuperblock(d *disk.Disk, n int, cause disk.IOCause, label string) (superblock, error) {
	buf := make([]byte, n)
	if err := d.ReadSectors(0, buf, cause, label); err != nil {
		return superblock{}, err
	}
	sb, err := decodeSuperblock(buf)
	if end := int64(sb.SegStart) + int64(sb.Segments)*int64(sb.SegmentSize)/disk.SectorSize; err == nil && end > d.Sectors() {
		err = fmt.Errorf("lfs: segment area ends at sector %d, past the disk's %d sectors", end, d.Sectors())
	}
	return sb, err
}

// ImageConfig returns cfg with the block size, segment size and inode
// count the volume on d was formatted with, read from its superblock.
func ImageConfig(d *disk.Disk, cfg Config) (Config, error) {
	sb, err := readSuperblock(d, disk.SectorSize, disk.CauseTool, "tool: superblock")
	cfg.BlockSize, cfg.SegmentSize, cfg.MaxInodes = int(sb.BlockSize), int(sb.SegmentSize), int(sb.MaxInodes)
	return cfg, err
}

// imapEntriesPerBlock returns how many imap entries one block holds.
func imapEntriesPerBlock(blockSize int) int { return blockSize / imapEntrySize }

// imapBlockCount returns the number of imap blocks for maxInodes.
func imapBlockCount(maxInodes, blockSize int) int {
	per := imapEntriesPerBlock(blockSize)
	return (maxInodes + per - 1) / per
}

// checkpointBytes returns the (sector-aligned) size of one checkpoint
// region for the given parameters.
func checkpointBytes(cfg Config, segments int) int {
	n := ckptHeaderSize +
		imapBlockCount(cfg.MaxInodes, cfg.BlockSize)*layout.AddrSize +
		segments*segUsageEntrySize +
		4 // trailing CRC
	return (n + 511) &^ 511
}

// planLayout computes the volume layout for a disk of the given
// capacity. The segment count must be solved iteratively because the
// checkpoint regions' size depends on it.
func planLayout(cfg Config, capacity int64) (superblock, error) {
	bs := int64(cfg.BlockSize)
	segments := int(capacity / int64(cfg.SegmentSize)) // upper bound
	for {
		if segments < 4 {
			return superblock{}, fmt.Errorf("lfs: disk too small for 4 segments of %d bytes", cfg.SegmentSize)
		}
		ckptBytes := int64(checkpointBytes(cfg, segments))
		// Superblock block, then two checkpoint regions, then
		// segments, block aligned.
		meta := bs + 2*ckptBytes
		meta = (meta + bs - 1) / bs * bs
		fit := int((capacity - meta) / int64(cfg.SegmentSize))
		if fit >= segments {
			sb := superblock{
				BlockSize:   uint32(cfg.BlockSize),
				SegmentSize: uint32(cfg.SegmentSize),
				MaxInodes:   uint32(cfg.MaxInodes),
				Segments:    uint32(segments),
				CkptBytes:   uint32(ckptBytes),
				Ckpt0Sector: uint32(bs / 512),
				Ckpt1Sector: uint32((bs + ckptBytes) / 512),
				SegStart:    uint32(meta / 512),
			}
			return sb, nil
		}
		segments = fit
	}
}

// Format initialises the disk as an empty LFS with a root directory.
// The root inode is written into segment 0 together with the initial
// imap blocks, and both checkpoint regions are written.
func Format(d *disk.Disk, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sb, err := planLayout(cfg, d.Capacity())
	if err != nil {
		return err
	}
	buf := make([]byte, cfg.BlockSize)
	sb.encode(buf)
	if err := d.WriteSectors(0, buf, true, disk.CauseFormat, "format: superblock"); err != nil {
		return err
	}
	// Build the initial state through a throwaway FS skeleton: an
	// empty imap with the root directory allocated, all segments
	// clean, then one checkpoint into each region so either is
	// valid.
	fs := newSkeleton(d, cfg, sb)
	root := layout.NewInode(layout.RootIno, layout.ModeDir|0o755)
	root.Nlink = 2
	fs.inodes.install(layout.RootIno, root)
	fs.markInodeDirty(layout.RootIno)
	fs.imap.alloc(layout.RootIno)
	if err := fs.flush(flushCheckpoint); err != nil {
		return err
	}
	// Write the checkpoint twice so both regions hold a valid
	// (identical) state; mount picks the higher serial.
	if err := fs.writeCheckpoint(); err != nil {
		return err
	}
	if err := fs.writeCheckpoint(); err != nil {
		return err
	}
	d.Drain()
	return nil
}

// --- address arithmetic ------------------------------------------------

// segSectors returns the sectors per segment.
func (fs *FS) segSectors() int64 { return int64(fs.sb.SegmentSize) / 512 }

// segFirstSector returns the first sector of segment seg.
func (fs *FS) segFirstSector(seg int) int64 {
	return int64(fs.sb.SegStart) + int64(seg)*fs.segSectors()
}

// segOf returns the segment containing the given sector address, or
// -1 when the address is outside the segment area.
func (fs *FS) segOf(a layout.DiskAddr) int {
	s := int64(a) - int64(fs.sb.SegStart)
	if s < 0 {
		return -1
	}
	seg := int(s / fs.segSectors())
	if seg >= int(fs.sb.Segments) {
		return -1
	}
	return seg
}

// blockStart returns the first sector of the block holding address a,
// which lies in segment seg.
func (fs *FS) blockStart(seg int, a layout.DiskAddr) layout.DiskAddr {
	spb := fs.cfg.sectorsPerBlock()
	first := fs.segFirstSector(seg)
	return layout.DiskAddr(first + (int64(a)-first)/spb*spb)
}

// blockSector returns the sector of block index blk within segment
// seg.
func (fs *FS) blockSector(seg, blk int) int64 {
	return fs.segFirstSector(seg) + int64(blk)*fs.cfg.sectorsPerBlock()
}
