// Package layout defines the on-disk data formats shared by the FFS
// baseline and the LFS storage manager: inodes, indirect blocks, and
// directory blocks, plus the block-mapping arithmetic that turns a
// logical block number into a path through the inode's block pointers.
//
// The paper stresses (Figure 2 caption) that "the formats of
// directories and inodes are the same as in the BSD example" — LFS
// changes *where* metadata lives, not what it looks like. Keeping one
// layout package for both file systems makes that property structural.
package layout

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Ino is an inode number. Inode 0 is never allocated; the root
// directory is always RootIno.
type Ino uint32

// RootIno is the inode number of the root directory.
const RootIno Ino = 1

// DiskAddr is a disk address in 512-byte sectors. NilAddr marks an
// unallocated block pointer (a hole).
type DiskAddr uint32

// NilAddr is the distinguished "no block" address.
const NilAddr DiskAddr = 0xFFFFFFFF

// IsNil reports whether the address is the distinguished nil value.
func (a DiskAddr) IsNil() bool { return a == NilAddr }

// String formats the address, rendering NilAddr as "-".
func (a DiskAddr) String() string {
	if a.IsNil() {
		return "-"
	}
	return fmt.Sprintf("%d", uint32(a))
}

// Inode geometry.
const (
	// NDirect is the number of direct block pointers in an inode.
	NDirect = 12
	// InodeSize is the on-disk inode record size in bytes.
	InodeSize = 128
	// AddrSize is the encoded size of a DiskAddr.
	AddrSize = 4
)

// FileMode holds the file type and permissions.
type FileMode uint16

// File type bits.
const (
	ModeDir  FileMode = 0x4000
	ModeFile FileMode = 0x8000
)

// IsDir reports whether the mode describes a directory.
func (m FileMode) IsDir() bool { return m&ModeDir != 0 }

// IsRegular reports whether the mode describes a regular file.
func (m FileMode) IsRegular() bool { return m&ModeFile != 0 }

// Inode is the disk-resident per-file metadata record. The Atime field
// deliberately does not appear here: the paper keeps access time in the
// inode map (footnote 2) so that reading a file does not move its
// inode; the FFS baseline stores atime separately in its inode table
// blocks for the same reason of format parity.
type Inode struct {
	// Ino is the inode's own number, stored for consistency checks.
	Ino Ino
	// Mode holds file type and permissions; a zero Mode marks a
	// free inode slot.
	Mode FileMode
	// Nlink counts directory references.
	Nlink uint16
	// Size is the file length in bytes.
	Size uint64
	// Mtime and Ctime are simulated-clock timestamps (ns).
	Mtime int64
	Ctime int64
	// Direct holds the first NDirect block addresses.
	Direct [NDirect]DiskAddr
	// Indirect points to a block of DiskAddrs (single indirection).
	Indirect DiskAddr
	// DoubleIndirect points to a block of pointers to indirect
	// blocks.
	DoubleIndirect DiskAddr
	// Gen is the file's generation: LFS stores the inode-map
	// version here so that roll-forward recovery can rebuild the
	// map's version column from inode records alone. FFS leaves it
	// zero.
	Gen uint32
}

// NewInode returns an inode with all block pointers nil.
func NewInode(ino Ino, mode FileMode) Inode {
	in := Inode{Ino: ino, Mode: mode, Nlink: 1}
	for i := range in.Direct {
		in.Direct[i] = NilAddr
	}
	in.Indirect = NilAddr
	in.DoubleIndirect = NilAddr
	return in
}

// Allocated reports whether the inode slot is in use.
func (in *Inode) Allocated() bool { return in.Mode != 0 }

// Encode writes the inode into p, which must be at least InodeSize
// bytes. The record ends with a CRC32 of the preceding bytes.
func (in *Inode) Encode(p []byte) {
	if len(p) < InodeSize {
		panic(fmt.Sprintf("layout: inode buffer %d < %d", len(p), InodeSize))
	}
	clear(p[:InodeSize])
	le := binary.LittleEndian
	le.PutUint32(p[0:], uint32(in.Ino))
	le.PutUint16(p[4:], uint16(in.Mode))
	le.PutUint16(p[6:], in.Nlink)
	le.PutUint64(p[8:], in.Size)
	le.PutUint64(p[16:], uint64(in.Mtime))
	le.PutUint64(p[24:], uint64(in.Ctime))
	off := 32
	for _, a := range in.Direct {
		le.PutUint32(p[off:], uint32(a))
		off += AddrSize
	}
	le.PutUint32(p[off:], uint32(in.Indirect))
	off += AddrSize
	le.PutUint32(p[off:], uint32(in.DoubleIndirect))
	off += AddrSize
	le.PutUint32(p[off:], in.Gen)
	le.PutUint32(p[InodeSize-4:], crc32.ChecksumIEEE(p[:InodeSize-4]))
}

// DecodeInode parses an inode record from p, verifying its checksum.
func DecodeInode(p []byte) (Inode, error) {
	if len(p) < InodeSize {
		return Inode{}, fmt.Errorf("layout: inode buffer %d < %d", len(p), InodeSize)
	}
	le := binary.LittleEndian
	if got, want := crc32.ChecksumIEEE(p[:InodeSize-4]), le.Uint32(p[InodeSize-4:]); got != want {
		return Inode{}, fmt.Errorf("layout: inode checksum mismatch (got %#x, want %#x)", got, want)
	}
	var in Inode
	in.Ino = Ino(le.Uint32(p[0:]))
	in.Mode = FileMode(le.Uint16(p[4:]))
	in.Nlink = le.Uint16(p[6:])
	in.Size = le.Uint64(p[8:])
	in.Mtime = int64(le.Uint64(p[16:]))
	in.Ctime = int64(le.Uint64(p[24:]))
	off := 32
	for i := range in.Direct {
		in.Direct[i] = DiskAddr(le.Uint32(p[off:]))
		off += AddrSize
	}
	in.Indirect = DiskAddr(le.Uint32(p[off:]))
	off += AddrSize
	in.DoubleIndirect = DiskAddr(le.Uint32(p[off:]))
	off += AddrSize
	in.Gen = le.Uint32(p[off:])
	return in, nil
}

// AllZero reports whether p holds only zero bytes, a word at a time: an
// inode slot never written is all zeros, and the checkers, the cleaner,
// the inode fetch and roll-forward scan inode blocks that are mostly
// empty slots.
func AllZero(p []byte) bool {
	for ; len(p) >= 8; p = p[8:] {
		if binary.LittleEndian.Uint64(p) != 0 {
			return false
		}
	}
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// An indirect block is a vector of DiskAddrs, read and written one entry
// at a time in place: LFS and FFS share these three and nothing decodes
// a whole block.

// FillNil initialises a fresh indirect block so every entry is NilAddr
// (a hole).
func FillNil(p []byte) {
	for i := range p {
		p[i] = 0xFF
	}
}

// AddrAt returns entry idx of the indirect block p.
func AddrAt(p []byte, idx int) DiskAddr {
	return DiskAddr(binary.LittleEndian.Uint32(p[idx*AddrSize:]))
}

// SetAddrAt writes a as entry idx of the indirect block p.
func SetAddrAt(p []byte, idx int, a DiskAddr) {
	binary.LittleEndian.PutUint32(p[idx*AddrSize:], uint32(a))
}

// Checksum returns the CRC32 (IEEE) of p; every multi-sector on-disk
// structure in this repository is checksummed with it — except log-unit
// payloads, which need DataChecksum (below).
func Checksum(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DataChecksum checksums a log unit's payload blocks. It deliberately
// uses a different polynomial (Castagnoli) from Checksum: inode blocks
// embed a per-record IEEE CRC, and a CRC is affine, so an IEEE checksum
// over records that end in their own IEEE CRC collapses to a value that
// depends only on which slots are occupied, never on their contents
// (the residue property: crc(m ‖ crc(m)) is constant in m). An IEEE
// DataCRC therefore cannot tell a torn segment write — fresh summary,
// stale inode block underneath — from an intact one. Under Castagnoli
// the embedded IEEE CRCs are ordinary content bytes and the collapse
// disappears.
func DataChecksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// ContinueDataChecksum continues crc, a DataChecksum, over p, which
// follows the bytes crc covers: a unit whose payload grows in place keeps
// its checksum without re-reading what it already holds.
func ContinueDataChecksum(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }
