package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

// Segment states tracked in the usage array.
const (
	// segClean segments are fully reusable log space.
	segClean uint8 = iota
	// segDirty segments hold (possibly dead) logged data.
	segDirty
	// segActive is the segment currently being appended to.
	segActive
	// segPending segments were reclaimed by the cleaner but must not
	// be reused until a checkpoint records the relocation of their
	// live blocks: a crash before that checkpoint recovers from the
	// previous one, whose pointers still reach into these segments,
	// so their old contents must survive untouched. A checkpoint
	// flips them to segClean between its log flush and its region
	// write (never persisted: no checkpoint image contains it).
	segPending
)

// segUsage is one segment usage array entry (§4.3.4): the live bytes in
// the segment and the age of its data — §3.6's "modified time of the
// youngest block", which the cost-benefit policy scores on. When the
// cleaner relocates cold blocks the copy is written now, but Age stays
// as old as the data was in the victim. The paper keeps Live as an
// estimate, a cleaning hint; here it is exact (creditBlock is the one
// place it changes, and Check() recounts it), snapshotted in
// checkpoints and carried across a crash by roll-forward.
type segUsage struct {
	Live  int64
	Age   sim.Time
	State uint8
}

// segUsageEntrySize is the encoded size of one usage entry in a
// checkpoint region. Bytes 8-15 are reserved: written as zero and
// ignored on read (they held a last-append time no policy used).
const segUsageEntrySize = 32

func (u *segUsage) encode(p []byte) {
	le := binary.LittleEndian
	le.PutUint64(p[0:], uint64(u.Live))
	le.PutUint64(p[8:], 0)
	le.PutUint64(p[16:], uint64(u.Age))
	p[24] = u.State
	for i := 25; i < segUsageEntrySize; i++ {
		p[i] = 0
	}
}

func decodeSegUsage(p []byte) segUsage {
	le := binary.LittleEndian
	return segUsage{
		Live:  int64(le.Uint64(p[0:])),
		Age:   sim.Time(le.Uint64(p[16:])),
		State: p[24],
	}
}

// --- write classes -----------------------------------------------------

// writeClass separates the log's two append streams: fresh
// application writes (hot) and cleaner-relocated live blocks (cold).
// Each class appends to its own open segment, so cold data compacts
// into stable high-utilization segments instead of being remixed with
// hot data that will soon die (§3.6's age-sorted write-out).
type writeClass uint8

const (
	classHot writeClass = iota
	classCold
	numClasses
)

// String names the class.
func (c writeClass) String() string {
	if c == classCold {
		return "cold"
	}
	return "hot"
}

// --- segment summaries (§4.3.1) ----------------------------------------

// blockKind classifies a logged block in a segment summary.
type blockKind uint8

const (
	// kindData is a file or directory data block; id is the
	// logical block number.
	kindData blockKind = iota
	// kindIndirect is an indirect pointer block; id identifies
	// which one (see indirect ids in inode.go).
	kindIndirect
	// kindInodes is a block packed with inode records; ino/id are
	// unused (the records carry their own numbers).
	kindInodes
	// kindImap is an inode map block; id is the imap block index.
	kindImap
)

// String names the kind.
func (k blockKind) String() string {
	switch k {
	case kindData:
		return "data"
	case kindIndirect:
		return "indirect"
	case kindInodes:
		return "inodes"
	case kindImap:
		return "imap"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// blockRef is one summary entry: the identity of a logged block. For
// each block the summary records the owning file and position (§4.3.1)
// plus the file's imap version at write time (§4.3.3 step 1).
type blockRef struct {
	Kind    blockKind
	Ino     layout.Ino
	ID      int64
	Version uint32
}

const (
	summaryMagic      = 0x4C53554D // "LSUM"
	summaryHeaderSize = 64
	summaryEntrySize  = 24
)

// summaryHeader describes one log write unit (a partial segment): the
// summary block(s) followed by nBlocks data blocks. Units are written
// with monotonically increasing serials; roll-forward recovery walks
// units in serial order and stops at the first gap or checksum
// mismatch (a torn write). Class records which append stream wrote
// the unit; Age is the modified time of the unit's youngest data —
// equal to Timestamp for fresh writes, older for cleaner relocations
// — so recovery can rebuild age-correct usage entries. Inline counts the
// inode records a commit put in the free slots at the end of the unit's
// last summary block instead of in an inode block (FORMAT.md).
type summaryHeader struct {
	Serial    uint64
	NBlocks   int
	SumBlocks int
	Timestamp sim.Time
	DataCRC   uint32
	Class     writeClass
	Age       sim.Time
	Inline    int
}

// summaryBytes returns the byte size of a summary for n blocks.
func summaryBytes(n int) int { return summaryHeaderSize + n*summaryEntrySize }

// summaryBlocks returns the blocks a summary for n entries occupies.
func summaryBlocks(n, blockSize int) int {
	return (summaryBytes(n) + blockSize - 1) / blockSize
}

// inlineOff is the byte offset, within the unit's summary blocks, of its
// first inline record: the records fill the last summary block from its
// end.
func (h summaryHeader) inlineOff(bs int) int { return h.SumBlocks*bs - h.Inline*layout.InodeSize }

// room is the free space between the summary's entries and its inline
// records, in bytes.
func (h summaryHeader) room(bs int) int { return h.inlineOff(bs) - summaryBytes(h.NBlocks) }

// inlineAt returns where the inline records of a unit starting at block
// blk of its segment sit: the segment block of its last summary block and
// the slot there of the first record.
func (h summaryHeader) inlineAt(blk, bs int) (sumBlk, slot int) {
	return blk + h.SumBlocks - 1, bs/layout.InodeSize - h.Inline
}

// slotAddr is the inode-map address of record slot of the block at
// sector block: the sector holding the record and its slot there.
func slotAddr(block layout.DiskAddr, slot int) (layout.DiskAddr, uint8) {
	return block + layout.DiskAddr(slot/inodesPerSector), uint8(slot % inodesPerSector)
}

// maxUnitBlocks returns the largest n such that a unit with n data
// blocks plus its summary fits in avail blocks. Returns 0 when not
// even one data block fits.
func maxUnitBlocks(avail, blockSize int) int {
	if avail < 2 {
		return 0
	}
	n := avail - 1 // optimistic: one summary block
	for n > 0 && summaryBlocks(n, blockSize)+n > avail {
		n--
	}
	return n
}

// encodeSummary writes the unit summary into p, which must span the
// summary blocks. refs are the unit's last entries: the h.NBlocks-len(refs)
// before them are already in p, as are its h.Inline records at p's end,
// so a batch that joins a unit re-encodes its summary in place. The bytes
// between the entries and the records are cleared.
func encodeSummary(h summaryHeader, refs []blockRef, p []byte) {
	off, recs := summaryBytes(h.NBlocks-len(refs)), len(p)-h.Inline*layout.InodeSize
	clear(p[:summaryHeaderSize])
	clear(p[off:recs])
	le := binary.LittleEndian
	le.PutUint32(p[0:], summaryMagic)
	le.PutUint64(p[4:], h.Serial)
	le.PutUint16(p[12:], uint16(h.NBlocks))
	le.PutUint16(p[14:], uint16(h.SumBlocks))
	le.PutUint64(p[16:], uint64(h.Timestamp))
	le.PutUint32(p[24:], h.DataCRC)
	p[32] = uint8(h.Class)
	le.PutUint16(p[34:], uint16(h.Inline))
	le.PutUint64(p[40:], uint64(h.Age))
	for _, r := range refs {
		p[off] = uint8(r.Kind)
		le.PutUint32(p[off+4:], uint32(r.Ino))
		le.PutUint64(p[off+8:], uint64(r.ID))
		le.PutUint32(p[off+16:], r.Version)
		off += summaryEntrySize
	}
	// Header checksum covers the header, all entries and the inline
	// records; stored in the spare header word.
	le.PutUint32(p[28:], 0)
	crc := crc32.Update(layout.Checksum(p[:summaryBytes(h.NBlocks)]), crc32.IEEETable, p[recs:])
	le.PutUint32(p[28:], crc)
}

// zeroCRCWord stands in for a summary's checksum word while the
// checksum is verified.
var zeroCRCWord [4]byte

// The verdicts of readUnit: why there is no valid unit at a block.
// FORMAT.md says which caller does what on each.
var (
	errSummaryShort    = errors.New("lfs: summary shorter than header")
	errSummaryMagic    = errors.New("lfs: bad summary magic")
	errSummaryChecksum = errors.New("lfs: summary checksum mismatch")
	errSummaryBounds   = errors.New("lfs: summary unit does not fit its segment")
	errUnitData        = errors.New("lfs: unit data checksum mismatch")
)

// checkBounds holds a decoded header to what a reader of a unit assumes
// before trusting its lengths: at least one summary block, and a unit
// starting at block blk that ends inside a segment of blocksPerSeg blocks.
func (h summaryHeader) checkBounds(blk, blocksPerSeg int) error {
	if h.SumBlocks < 1 || blk+h.SumBlocks+h.NBlocks > blocksPerSeg {
		return errSummaryBounds
	}
	return nil
}

// decodeSummaryHeader parses just the summary header; its checksum,
// which also covers the entries, is verified by readUnit on the full
// unit.
func decodeSummaryHeader(p []byte) (summaryHeader, error) {
	if len(p) < summaryHeaderSize {
		return summaryHeader{}, errSummaryShort
	}
	le := binary.LittleEndian
	if le.Uint32(p[0:]) != summaryMagic {
		return summaryHeader{}, errSummaryMagic
	}
	return summaryHeader{
		Serial:    le.Uint64(p[4:]),
		NBlocks:   int(le.Uint16(p[12:])),
		SumBlocks: int(le.Uint16(p[14:])),
		Timestamp: sim.Time(le.Uint64(p[16:])),
		DataCRC:   le.Uint32(p[24:]),
		Class:     writeClass(p[32]),
		Inline:    int(le.Uint16(p[34:])),
		Age:       sim.Time(le.Uint64(p[40:])),
	}, nil
}

// logUnit is one log unit as readUnit found it in a segment's bytes: its
// header, its summary entries, its data blocks, its inline inode records
// (nil when it has none), and the block after it.
type logUnit struct {
	summaryHeader
	refs   []blockRef
	data   []byte
	inline []byte
	end    int
}

// readUnit is the one reader of log units: roll-forward, the cleaner and
// Dump walk a segment with it. It reads the unit at block blk of seg (a
// segment's bytes, in blocks of bs), appending its entries to refs (the
// cleaner passes its scratch; nil allocates). Its verdict is nil for a
// unit; errSummaryShort or errSummaryMagic when none starts there;
// errSummaryChecksum when the summary is damaged or its entries run past
// seg or its inline records overlap its entries or its last summary
// block; errSummaryBounds when it is intact but does not fit the segment;
// errUnitData when the payload does not match the summary's DataCRC, with
// the unit as decoded, so Dump can still show it.
func readUnit(seg []byte, blk, bs int, refs []blockRef) (logUnit, error) {
	p := seg[blk*bs:]
	h, err := decodeSummaryHeader(p)
	if err != nil {
		return logUnit{}, err
	}
	total, sumEnd := summaryBytes(h.NBlocks), h.SumBlocks*bs
	if total > len(p) || h.Inline > 0 && (sumEnd > len(p) || h.Inline*layout.InodeSize > bs || h.room(bs) < 0) {
		return logUnit{}, errSummaryChecksum
	}
	var inline []byte
	if h.Inline > 0 {
		inline = p[h.inlineOff(bs):sumEnd]
	}
	// The checksum was computed with its own word zeroed (encodeSummary);
	// feed the CRC around that word rather than copying the summary.
	crc := crc32.Update(0, crc32.IEEETable, p[:28])
	crc = crc32.Update(crc, crc32.IEEETable, zeroCRCWord[:])
	crc = crc32.Update(crc, crc32.IEEETable, p[32:total])
	crc = crc32.Update(crc, crc32.IEEETable, inline)
	le := binary.LittleEndian
	if crc != le.Uint32(p[28:]) {
		return logUnit{}, errSummaryChecksum
	}
	if err := h.checkBounds(blk, len(seg)/bs); err != nil {
		return logUnit{}, err
	}
	if refs == nil {
		refs = make([]blockRef, 0, h.NBlocks)
	}
	for off := summaryHeaderSize; off < total; off += summaryEntrySize {
		refs = append(refs, blockRef{
			Kind:    blockKind(p[off]),
			Ino:     layout.Ino(le.Uint32(p[off+4:])),
			ID:      int64(le.Uint64(p[off+8:])),
			Version: le.Uint32(p[off+16:]),
		})
	}
	start := blk + h.SumBlocks
	u := logUnit{h, refs, seg[start*bs : (start+h.NBlocks)*bs], inline, start + h.NBlocks}
	if layout.DataChecksum(u.data) != h.DataCRC {
		return u, errUnitData
	}
	return u, nil
}
