package core

import (
	"encoding/binary"
	"fmt"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

// imapEntry is one inode map record (§4.2.1): where the inode
// currently lives on disk, whether it is allocated, its version
// number (bumped whenever the file is truncated to length zero or
// deleted, so the cleaner can dismiss dead blocks cheaply, §4.3.3),
// and the file's access time (footnote 2: kept here so reading a file
// does not relocate its inode).
type imapEntry struct {
	// Addr is the sector holding the inode record.
	Addr layout.DiskAddr
	// Slot is the inode's index within that sector.
	Slot uint8
	// Allocated marks the inode number as in use.
	Allocated bool
	// Version counts truncations/deletions of this inode number.
	Version uint32
	// Atime is the file's last access time.
	Atime sim.Time
}

// encode writes the entry into p (imapEntrySize bytes).
func (e *imapEntry) encode(p []byte) {
	le := binary.LittleEndian
	le.PutUint32(p[0:], uint32(e.Addr))
	p[4] = e.Slot
	if e.Allocated {
		p[5] = 1
	} else {
		p[5] = 0
	}
	p[6], p[7] = 0, 0
	le.PutUint32(p[8:], e.Version)
	le.PutUint64(p[12:], uint64(e.Atime))
	le.PutUint32(p[20:], 0)
}

// decodeImapEntry parses an entry from p.
func decodeImapEntry(p []byte) imapEntry {
	le := binary.LittleEndian
	return imapEntry{
		Addr:      layout.DiskAddr(le.Uint32(p[0:])),
		Slot:      p[4],
		Allocated: p[5] != 0,
		Version:   le.Uint32(p[8:]),
		Atime:     sim.Time(le.Uint64(p[12:])),
	}
}

// imapTable is the in-memory inode map. The paper partitions the map
// into blocks "cached like regular files"; here a block's entries
// become memory resident the first time anything touches the block —
// an allocation, a block the checkpoint names, a record roll-forward
// replays — and stay, so the table costs what the volume holds, not
// what MaxInodes allows. Dirtiness is tracked per block so that only
// modified imap blocks are logged at checkpoints.
type imapTable struct {
	// blocks[i][j] is the entry of ino i*perBlock+j+1; a block nothing
	// has touched is nil and reads as all-free, NilAddr entries.
	blocks     [][]imapEntry
	max        layout.Ino // the configured bound, not what is resident
	dirtyBlock []bool     // per imap block
	blockAddrs []layout.DiskAddr
	perBlock   int
	freeList   []layout.Ino
	nextIno    layout.Ino // lowest never-used ino
	allocated  int
}

// newImap returns an empty map for maxInodes inode numbers.
func newImap(maxInodes, blockSize int) *imapTable {
	blocks := imapBlockCount(maxInodes, blockSize)
	m := &imapTable{
		blocks:     make([][]imapEntry, blocks),
		max:        layout.Ino(maxInodes),
		dirtyBlock: make([]bool, blocks),
		blockAddrs: make([]layout.DiskAddr, blocks),
		perBlock:   imapEntriesPerBlock(blockSize),
		nextIno:    layout.RootIno,
	}
	for i := range m.blockAddrs {
		m.blockAddrs[i] = layout.NilAddr
	}
	return m
}

// maxIno returns the largest valid inode number.
func (m *imapTable) maxIno() layout.Ino { return m.max }

// blockOf returns the imap block index covering ino.
func (m *imapTable) blockOf(ino layout.Ino) int { return int(uint32(ino-1) / uint32(m.perBlock)) }

// get returns the entry for ino, 1 ≤ ino ≤ maxIno, for a caller about
// to change it: the covering block becomes resident. An entry never
// moves once it exists.
func (m *imapTable) get(ino layout.Ino) *imapEntry {
	idx := m.blockOf(ino)
	return &m.block(idx)[int(ino-1)-idx*m.perBlock]
}

// peek returns a copy of ino's entry and never grows the table: a number
// in a block nothing has touched, or outside 1..maxIno, reads as free —
// so a liveness check may hand it a number it read from disk.
func (m *imapTable) peek(ino layout.Ino) imapEntry {
	if ino >= 1 && ino <= m.max {
		idx := m.blockOf(ino)
		if b := m.blocks[idx]; b != nil {
			return b[int(ino-1)-idx*m.perBlock]
		}
	}
	return imapEntry{Addr: layout.NilAddr}
}

// block returns imap block idx's entries, resident from now on; the last
// block stops at maxIno.
func (m *imapTable) block(idx int) []imapEntry {
	if m.blocks[idx] == nil {
		b := make([]imapEntry, min(m.perBlock, int(m.max)-idx*m.perBlock))
		for i := range b {
			b[i].Addr = layout.NilAddr
		}
		m.blocks[idx] = b
	}
	return m.blocks[idx]
}

// highIno returns the last inode number of the highest resident block:
// every number above it is free, so walks of the whole map stop there.
func (m *imapTable) highIno() layout.Ino {
	for idx := len(m.blocks) - 1; idx >= 0; idx-- {
		if b := m.blocks[idx]; b != nil {
			return layout.Ino(idx*m.perBlock + len(b))
		}
	}
	return 0
}

// markDirty records a modification to ino's entry.
func (m *imapTable) markDirty(ino layout.Ino) {
	m.dirtyBlock[m.blockOf(ino)] = true
}

// alloc marks a specific ino allocated (used during Format for the
// root).
func (m *imapTable) alloc(ino layout.Ino) {
	e := m.get(ino)
	e.Allocated = true
	m.allocated++
	m.markDirty(ino)
	if ino >= m.nextIno {
		m.nextIno = ino + 1
	}
}

// allocNew returns a fresh inode number, reusing freed numbers first.
// The entry's version survives reuse, so blocks of the number's
// previous life stay detectably dead.
func (m *imapTable) allocNew() (layout.Ino, error) {
	var ino layout.Ino
	switch {
	case len(m.freeList) > 0:
		ino = m.freeList[len(m.freeList)-1]
		m.freeList = m.freeList[:len(m.freeList)-1]
	case m.nextIno <= m.maxIno():
		ino = m.nextIno
		m.nextIno++
	default:
		return 0, fmt.Errorf("inode map full (%d inodes)", m.maxIno())
	}
	e := m.get(ino)
	e.Allocated = true
	e.Addr = layout.NilAddr
	e.Slot = 0
	m.allocated++
	m.markDirty(ino)
	return ino, nil
}

// free releases ino and bumps its version (§4.3.3).
func (m *imapTable) free(ino layout.Ino) {
	e := m.get(ino)
	if !e.Allocated {
		panic(fmt.Sprintf("lfs: double free of inode %d", ino))
	}
	e.Allocated = false
	e.Addr = layout.NilAddr
	e.Version++
	m.allocated--
	m.freeList = append(m.freeList, ino)
	m.markDirty(ino)
}

// bumpVersion increments ino's version (truncate-to-zero).
func (m *imapTable) bumpVersion(ino layout.Ino) {
	m.get(ino).Version++
	m.markDirty(ino)
}

// blockCount returns the number of imap blocks.
func (m *imapTable) blockCount() int { return len(m.blockAddrs) }

// encodeBlock serialises imap block idx into p (one FS block).
func (m *imapTable) encodeBlock(idx int, p []byte) {
	clear(p)
	b := m.block(idx)
	for i := range b {
		b[i].encode(p[i*imapEntrySize:])
	}
}

// decodeBlock loads imap block idx from p.
func (m *imapTable) decodeBlock(idx int, p []byte) {
	b := m.block(idx)
	for i := range b {
		b[i] = decodeImapEntry(p[i*imapEntrySize:])
	}
}

// rebuildFreeState reconstructs the free list and next-ino high water
// mark after loading entries at mount.
func (m *imapTable) rebuildFreeState() {
	m.freeList, m.allocated, m.nextIno = m.freeList[:0], 0, layout.RootIno
	for idx, b := range m.blocks {
		for i := range b {
			if b[i].Allocated {
				m.allocated++
				m.nextIno = layout.Ino(idx*m.perBlock+i) + 2
			}
		}
	}
	// Freed numbers below the high-water mark are reusable; recover
	// them (in descending order so low numbers are handed out
	// first).
	for ino := m.nextIno - 1; ino >= layout.RootIno; ino-- {
		if !m.peek(ino).Allocated {
			m.freeList = append(m.freeList, ino)
		}
	}
}

// Allocated returns the number of live inodes.
func (m *imapTable) Allocated() int { return m.allocated }
