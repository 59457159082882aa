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
// into blocks "cached like regular files"; here the full table is
// memory resident (it is small) while dirtiness is still tracked per
// block so that only modified imap blocks are logged at checkpoints.
type imapTable struct {
	entries    []imapEntry // index = ino (entry 0 unused)
	dirtyBlock []bool      // per imap block
	blockAddrs []layout.DiskAddr
	perBlock   int
	freeList   []layout.Ino
	nextIno    layout.Ino // lowest never-used ino
	allocated  int
}

// newImap returns an empty map for maxInodes inode numbers.
func newImap(maxInodes, blockSize int) *imapTable {
	per := imapEntriesPerBlock(blockSize)
	blocks := imapBlockCount(maxInodes, blockSize)
	m := &imapTable{
		entries:    make([]imapEntry, maxInodes+1),
		dirtyBlock: make([]bool, blocks),
		blockAddrs: make([]layout.DiskAddr, blocks),
		perBlock:   per,
		nextIno:    layout.RootIno,
	}
	for i := range m.entries {
		m.entries[i].Addr = layout.NilAddr
	}
	for i := range m.blockAddrs {
		m.blockAddrs[i] = layout.NilAddr
	}
	return m
}

// maxIno returns the largest valid inode number.
func (m *imapTable) maxIno() layout.Ino { return layout.Ino(len(m.entries) - 1) }

// blockOf returns the imap block index covering ino.
func (m *imapTable) blockOf(ino layout.Ino) int { return int(ino-1) / m.perBlock }

// get returns the entry for ino; callers must not retain it across
// map mutations.
func (m *imapTable) get(ino layout.Ino) *imapEntry {
	return &m.entries[ino]
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
	first := layout.Ino(idx*m.perBlock) + 1
	for i := 0; i < m.perBlock; i++ {
		ino := first + layout.Ino(i)
		if int(ino) >= len(m.entries) {
			break
		}
		m.entries[ino].encode(p[i*imapEntrySize:])
	}
}

// decodeBlock loads imap block idx from p.
func (m *imapTable) decodeBlock(idx int, p []byte) {
	first := layout.Ino(idx*m.perBlock) + 1
	for i := 0; i < m.perBlock; i++ {
		ino := first + layout.Ino(i)
		if int(ino) >= len(m.entries) {
			break
		}
		m.entries[ino] = decodeImapEntry(p[i*imapEntrySize:])
	}
}

// rebuildFreeState reconstructs the free list and next-ino high water
// mark after loading entries at mount.
func (m *imapTable) rebuildFreeState() {
	m.freeList = m.freeList[:0]
	m.allocated = 0
	m.nextIno = layout.RootIno
	for ino := layout.RootIno; ino <= m.maxIno(); ino++ {
		if m.entries[ino].Allocated {
			m.allocated++
			m.nextIno = ino + 1
		}
	}
	// Freed numbers below the high-water mark are reusable; recover
	// them (in descending order so low numbers are handed out
	// first).
	for ino := m.nextIno - 1; ino >= layout.RootIno; ino-- {
		if !m.entries[ino].Allocated {
			m.freeList = append(m.freeList, ino)
		}
	}
}

// Allocated returns the number of live inodes.
func (m *imapTable) Allocated() int { return m.allocated }
