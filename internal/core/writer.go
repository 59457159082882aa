package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// logHead is one append position in the log: the active segment, the
// next free block, the first block not yet issued (buf holds blocks
// pending..blk from its front), and whether the head currently owns a
// segment at all. The hot head is always open; the cold head opens on
// the first cleaner relocation and closes if the log cannot spare it one.
// unit is the block the head's last unit starts at; joinable says a
// commit opened it and a later batch of the commit may still join it,
// until the run is issued or the head moves.
type logHead struct {
	seg      int
	blk      int
	pending  int
	buf      []byte
	open     bool
	unit     int
	joinable bool
}

// reserve makes room in h.buf for n blocks after the unissued run and
// returns the run's length in blocks. A short buffer grows once, keeping
// the run, to the next power of two at or above the need, capped at one
// segment: a head that only carries fsync-sized units stays small.
func (fs *FS) reserve(h *logHead, n int) int {
	bs, run := fs.cfg.BlockSize, h.blk-h.pending
	if need := (run + n) * bs; need > len(h.buf) {
		buf := make([]byte, min(1<<bits.Len(uint(need-1)), fs.cfg.SegmentSize))
		copy(buf, h.buf[:run*bs])
		h.buf = buf
	}
	return run
}

// flushScope controls what a segment write includes.
type flushScope int

const (
	// flushAll writes all dirty data, indirect blocks, and inodes —
	// the normal segment write (§4.1, §4.3.5).
	flushAll flushScope = iota
	// flushCheckpoint additionally writes dirty inode map blocks,
	// as the first half of a checkpoint (§4.4.1).
	flushCheckpoint
)

// logBlock is one data or indirect block on its way into the log: whose
// it is, its bytes, the cached copy to mark clean once they are logged
// (nil when the bytes are the cleaner's own) and, for a relocation, the
// age of the data.
type logBlock struct {
	key  cache.Key
	data []byte
	b    *cache.Block
	age  sim.Time
}

// writerScratch is the segment writer's working memory, kept on the FS
// so a steady-state flush allocates nothing. One batch is gathered,
// placed and credited before the next is gathered, so one set serves
// every batch of a flush.
type writerScratch struct {
	batch   []logBlock
	refs    []blockRef
	payload [][]byte
	meta    []byte // backs the payload of inode and imap blocks
	ages    []sim.Time
	addrs   []layout.DiskAddr
	inos    []layout.Ino
	commit  bool // an fsync or FlushAsync is running (placeBlocks)
}

// flush is the segment writer: it gathers every dirty block from the
// cache, packs the blocks into log units (partial segments) with
// summary blocks, writes them with large asynchronous sequential
// transfers, and redirects all metadata pointers to the new locations.
//
// Batches are ordered bottom-up so every pointer update lands in a
// structure written later in the same flush: data blocks first (their
// new addresses dirty indirect blocks and inodes), then double-
// indirect inner blocks, the outer blocks, single indirect blocks,
// then inodes packed into inode blocks (updating the inode map), and
// finally — during checkpoints — the dirty inode map blocks
// themselves.
func (fs *FS) flush(scope flushScope) error {
	// Activate the cleaner below the clean-segment watermark
	// (§4.3.4) before starting to consume segments.
	if !fs.cleaning && fs.cleanCount <= fs.cfg.cleanThreshold(int(fs.sb.Segments)) {
		if err := fs.cleanUntil(fs.cfg.cleanTarget(int(fs.sb.Segments))); err != nil {
			return err
		}
	}

	// Batches 1-4: data blocks, then indirect blocks innermost first.
	if err := fs.writeDirtyBlocks(0); err != nil {
		return err
	}

	// Batch 5: inodes, packed into inode blocks: those a cleaner pass
	// dirtied to the cold head, then the rest to the hot one.
	fs.wr.inos = fs.inodes.appendDirty(fs.wr.inos[:0])
	hot, cold, ages := fs.splitPassInodes(fs.wr.inos)
	if err := fs.writeInodeBatchFor(cold, ages); err != nil {
		return err
	}
	if err := fs.writeInodeBatchFor(hot, nil); err != nil {
		return err
	}

	// Batch 6: inode map blocks (checkpoints only; between
	// checkpoints the summaries carry enough to roll forward).
	if scope == flushCheckpoint {
		if err := fs.writeImapBatch(); err != nil {
			return err
		}
	}
	return fs.flushPendingIO()
}

// blockPasses are the cache-block batches of a segment write in the
// order they must be written, each a block kind and an inclusive range
// of block ids: every pass's pointer updates dirty blocks of a later
// pass only (data → any indirect, inner → outer), which is also why
// every pass walks the dirty list afresh.
var blockPasses = [...]struct {
	kind   cache.Kind
	ref    blockKind
	lo, hi int64
}{
	{cache.KindFile, kindData, 0, math.MaxInt64},
	{cache.KindIndirect, kindIndirect, layout.IndDoubleInner, math.MaxInt64},
	{cache.KindIndirect, kindIndirect, layout.IndDoubleOuter, layout.IndDoubleOuter},
	{cache.KindIndirect, kindIndirect, layout.IndSingle, layout.IndSingle},
}

// writeDirtyBlocks logs the dirty data and indirect blocks — of every
// file, or of file ino alone when it is nonzero (fsync) — in dirtied
// order within each pass, and redirects their pointers. A cleaner pass's
// relocations go first, to the cold stream in the order they were
// revived; logging them cleans the cached ones, so the dirty list that
// is walked next holds the hot stream alone.
func (fs *FS) writeDirtyBlocks(ino layout.Ino) error {
	for _, p := range blockPasses {
		takes := func(k cache.Key) bool {
			return k.Kind == p.kind && (ino == 0 || k.Ino == ino) && p.lo <= k.Off && k.Off <= p.hi
		}
		batch := fs.wr.batch[:0]
		for _, m := range fs.cl.moves {
			if takes(m.key) {
				batch = append(batch, m)
			}
		}
		if err := fs.writeBlockClass(batch, classCold, p.ref); err != nil {
			return err
		}
		batch = batch[:0]
		for b := fs.bc.NextDirty(nil); b != nil; b = fs.bc.NextDirty(b) {
			if takes(b.Key) {
				batch = append(batch, logBlock{key: b.Key, data: b.Data, b: b})
			}
		}
		fs.wr.batch = batch
		if err := fs.writeBlockClass(batch, classHot, p.ref); err != nil {
			return err
		}
	}
	return nil
}

// writeBlockClass logs one class's data or indirect blocks and redirects
// their pointers: the one place either happens. Relocations carry their
// victim segment's age so cold data stays old across copies (§3.6) —
// one batch can mix ages, the cleaner relocates several victims per
// pass — and fresh writes are as young as now.
func (fs *FS) writeBlockClass(blocks []logBlock, class writeClass, kind blockKind) error {
	if len(blocks) == 0 {
		return nil
	}
	now := fs.clock.Now()
	refs, payload, ages := fs.wr.refs[:0], fs.wr.payload[:0], fs.wr.ages[:0]
	for _, b := range blocks {
		refs = append(refs, blockRef{
			Kind:    kind,
			Ino:     b.key.Ino,
			ID:      b.key.Off,
			Version: fs.imap.peek(b.key.Ino).Version,
		})
		payload = append(payload, b.data)
		if class == classCold {
			ages = append(ages, cmp.Or(b.age, now))
		}
	}
	fs.wr.refs, fs.wr.payload, fs.wr.ages = refs, payload, ages
	if class == classHot {
		ages = nil // placeBlocks reads nil as "everything is as young as now"
	}
	addrs, err := fs.placeBlocks(class, refs, payload, ages)
	if err != nil {
		return err
	}
	bs := int64(fs.cfg.BlockSize)
	for i, b := range blocks {
		in, err := fs.getInode(b.key.Ino)
		if err != nil {
			return fmt.Errorf("lfs: flushing %v block of inode %d: %w", kind, b.key.Ino, err)
		}
		var old layout.DiskAddr
		dirty := fs.inodes.isDirty(b.key.Ino)
		if kind == kindData {
			old, err = fs.setBlockAddr(in, b.key.Off, addrs[i])
		} else {
			old, err = fs.setIndirectAddr(in, b.key.Off, addrs[i])
		}
		if err != nil {
			return err
		}
		if class == classCold && !dirty && fs.inodes.isDirty(b.key.Ino) {
			fs.passDirtied(b.key.Ino, cmp.Or(b.age, now))
		}
		fs.killBlock(old, bs)
		fs.creditBlock(addrs[i], bs, cmp.Or(b.age, now))
		if b.b != nil {
			fs.bc.MarkClean(b.b)
		}
	}
	return nil
}

// metaPayload returns n block-sized buffers for inode or imap blocks,
// carved from one reused span that at least doubles when it grows (a run
// whose batches creep upward would otherwise reallocate at every new
// maximum); their contents are stale, and the caller overwrites or
// clears every byte.
func (fs *FS) metaPayload(n int) [][]byte {
	bs := fs.cfg.BlockSize
	if cap(fs.wr.meta) < n*bs {
		fs.wr.meta = make([]byte, max(n*bs, 2*cap(fs.wr.meta)))
	}
	meta := fs.wr.meta[:n*bs]
	payload := fs.wr.payload[:0]
	for i := 0; i < n; i++ {
		payload = append(payload, meta[i*bs:(i+1)*bs])
	}
	fs.wr.payload = payload
	return payload
}

// splitPassInodes splits the dirty inodes inos, ascending, into those
// the running cleaner pass dirtied (passDirtied), each with its data's
// age, and the rest, reusing inos for the rest. Outside a pass, or with
// segregation off, every inode is in the rest.
func (fs *FS) splitPassInodes(inos []layout.Ino) (rest, pass []layout.Ino, ages []sim.Time) {
	marks := fs.cl.dirtied
	if len(marks) == 0 {
		return inos, nil, nil
	}
	slices.SortFunc(marks, func(a, b inodeAge) int { return cmp.Compare(a.ino, b.ino) })
	rest, pass, ages = inos[:0], fs.cl.inos[:0], fs.cl.ages[:0]
	j := 0
	for _, ino := range inos {
		for j < len(marks) && marks[j].ino < ino {
			j++
		}
		if j < len(marks) && marks[j].ino == ino {
			pass, ages = append(pass, ino), append(ages, marks[j].age)
		} else {
			rest = append(rest, ino)
		}
	}
	fs.cl.dirtied, fs.cl.inos, fs.cl.ages = marks[:0], pass, ages
	return rest, pass, ages
}

// writeInodeBatchFor packs the given dirty inodes, in ascending order,
// into inode blocks, logs them, and updates the inode map. Inode blocks go
// hot — they aggregate records of many files and are rewritten whenever
// any of them changes — except the records a cleaner pass dirtied, which
// come with ages, each its data's: they go cold, in the pass's cold unit
// (placeBlocks). A commit's batch that fits the free slots of its unit's
// summary goes there instead (inlineInodes), and the commit writes one
// block fewer.
func (fs *FS) writeInodeBatchFor(inos []layout.Ino, ages []sim.Time) error {
	if len(inos) == 0 {
		return nil
	}
	per := fs.inodesPerBlock()
	// The records went to blocks, the first at slot first of blocks[0]
	// and on from there.
	blocks := fs.wr.addrs[:0]
	sum, first, ok := fs.inlineInodes(inos)
	if ok {
		blocks = append(blocks, sum)
		fs.wr.addrs = blocks
	} else {
		payload := fs.metaPayload((len(inos) + per - 1) / per)
		refs := fs.wr.refs[:0]
		for i, ino := range inos {
			in := fs.inodes.get(ino)
			if in == nil {
				return fmt.Errorf("lfs: dirty inode %d missing from the in-core table", ino)
			}
			in.Encode(payload[i/per][i%per*layout.InodeSize:])
			if i%per == 0 {
				refs = append(refs, blockRef{Kind: kindInodes})
			}
		}
		fs.wr.refs = refs
		used := (len(inos)-1)%per + 1 // slots of the last block
		clear(payload[len(payload)-1][used*layout.InodeSize:])
		class, blockAges := classHot, []sim.Time(nil) // nil: as young as now
		if ages != nil {
			class, blockAges = classCold, fs.wr.ages[:0]
			for i, age := range ages { // a block is as young as its youngest record
				if i%per == 0 {
					blockAges = append(blockAges, age)
				}
				blockAges[i/per] = max(blockAges[i/per], age)
			}
			fs.wr.ages = blockAges
		}
		var err error
		if blocks, err = fs.placeBlocks(class, refs, payload, blockAges); err != nil {
			return err
		}
	}
	for n, ino := range inos {
		base, i := blocks[(first+n)/per], (first+n)%per
		e := fs.imap.get(ino)
		fs.killBlock(e.Addr, layout.InodeSize)
		e.Addr, e.Slot = slotAddr(base, i)
		fs.imap.markDirty(ino)
		age := fs.clock.Now()
		if ages != nil {
			age = ages[n]
		}
		fs.creditBlock(base, layout.InodeSize, age)
		fs.inodes.setDirty(ino, false)
	}
	return nil
}

// inlineInodes encodes the records of inos into free slots at the end of
// the last summary block of the hot head's open commit unit, and counts
// them in its summary, whose checksum covers them. It returns the block's
// address and the first record's slot in it; false, having changed
// nothing, outside a commit, with no commit unit open, when the slots are
// too few, or for a number with no in-core record. The commit's other
// batches come first, so the summary holds every entry it will.
func (fs *FS) inlineInodes(inos []layout.Ino) (layout.DiskAddr, int, bool) {
	h := &fs.heads[classHot]
	if !fs.wr.commit || fs.cleaning || !h.joinable {
		return 0, 0, false
	}
	bs := fs.cfg.BlockSize
	p := h.buf[(h.unit-h.pending)*bs:]
	hdr, _ := decodeSummaryHeader(p) // placeBlocks encoded it
	if hdr.room(bs) < len(inos)*layout.InodeSize {
		return 0, 0, false
	}
	hdr.Inline += len(inos)
	p = p[:hdr.SumBlocks*bs]
	recs := p[hdr.inlineOff(bs):]
	for i, ino := range inos {
		in := fs.inodes.get(ino)
		if in == nil {
			clear(recs[:i*layout.InodeSize])
			return 0, 0, false
		}
		in.Encode(recs[i*layout.InodeSize:])
	}
	hdr.Age = fs.clock.Now()
	encodeSummary(hdr, nil, p)
	sum, first := hdr.inlineAt(h.unit, bs)
	return layout.DiskAddr(fs.blockSector(h.seg, sum)), first, true
}

// writeImapBatch logs every dirty inode map block and records the new
// addresses for the next checkpoint region write.
func (fs *FS) writeImapBatch() error {
	n := 0
	for _, dirty := range fs.imap.dirtyBlock {
		if dirty {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	payload := fs.metaPayload(n)
	refs := fs.wr.refs[:0]
	for idx, dirty := range fs.imap.dirtyBlock {
		if dirty {
			fs.imap.encodeBlock(idx, payload[len(refs)])
			refs = append(refs, blockRef{Kind: kindImap, ID: int64(idx)})
		}
	}
	fs.wr.refs = refs
	addrs, err := fs.placeBlocks(classHot, refs, payload, nil)
	if err != nil {
		return err
	}
	bs := int64(fs.cfg.BlockSize)
	for i, ref := range refs {
		idx := int(ref.ID)
		fs.killBlock(fs.imap.blockAddrs[idx], bs)
		fs.imap.blockAddrs[idx] = addrs[i]
		fs.creditBlock(addrs[i], bs, fs.clock.Now())
		fs.imap.dirtyBlock[idx] = false
	}
	return nil
}

// placeBlocks appends the given blocks to the log as one or more
// units, assembling them in the class's head buffer, and returns the
// disk address assigned to each block. Consecutive units in one
// segment are contiguous, so the eventual disk transfers are
// sequential. Cold placements fall back to the hot head when
// segregation is off or the log cannot spare the cold stream a
// segment; the unit's summary then records the head it actually
// landed in, while its Age still carries the relocated data's age.
// ages carries the per-block data age (nil means everything is as
// young as now); each unit's summary records the youngest age it
// contains, matching the segment-age semantics of §3.6.
//
// During a commit (fsync or FlushAsync, but not a cleaner pass it
// starts) a batch joins the head's open unit when the unit's summary
// blocks have room for its entries and the segment for its blocks, so a
// commit writes one unit, one summary, per head. A cleaner pass's cold
// batches — relocated data, then indirect blocks, then the records the
// pass dirtied — join the cold head's open unit by the same rule, so a
// pass writes one cold unit. That unit, opened early with serial s, can
// take records pointing at hot blocks of a later serial (an indirect
// block a relocation dirtied); it is safe because flushPendingIO issues
// the hot run first, so a cold run that survived a crash has its hot run
// behind it. The pass's hot batches never join: a hot unit of serial s
// holding records that point into a cold unit of serial s+1 would be
// replayed after a crash that lost the cold run. Every other flush opens a
// unit per batch: joining there too would move the figures lfsperf's
// frozen oracles hold (ROADMAP item 7). A commit's inode batch may skip
// placement altogether (inlineInodes).
func (fs *FS) placeBlocks(class writeClass, refs []blockRef, payload [][]byte, ages []sim.Time) ([]layout.DiskAddr, error) {
	now := fs.clock.Now()
	if class == classCold && !fs.cfg.Segregation {
		class = classHot
	}
	if class == classCold && !fs.heads[classCold].open && !fs.openColdHead() {
		class = classHot
	}
	bs, perSeg := fs.cfg.BlockSize, fs.cfg.blocksPerSegment()
	commit := fs.wr.commit && !fs.cleaning
	addrs := fs.wr.addrs[:0]
	i := 0
	for i < len(payload) {
		h := &fs.heads[class]
		n, sumBlks := len(payload)-i, 0
		var hdr summaryHeader
		join := commit || fs.cleaning && class == classCold
		joins := join && h.joinable
		if joins {
			hdr, _ = decodeSummaryHeader(h.buf[(h.unit-h.pending)*bs:]) // this loop encoded it
			joins = n*summaryEntrySize <= hdr.room(bs) && h.blk+n <= perSeg
		}
		if !joins {
			fit := maxUnitBlocks(perSeg-h.blk, bs)
			if fit == 0 {
				if err := fs.advanceSegment(class); err != nil {
					if class == classCold {
						// No segment to spare for the cold stream (its
						// full segment is already sealed): close it and
						// share the hot head until space frees up.
						fs.heads[classCold].open = false
						class = classHot
						continue
					}
					return nil, err
				}
				continue
			}
			n = min(n, fit)
			sumBlks = summaryBlocks(n, bs)
			hdr = summaryHeader{Serial: fs.writeSerial, SumBlocks: sumBlks, Timestamp: fs.clock.Now(), Class: class}
			h.unit, h.joinable = h.blk, join
			fs.writeSerial++
			fs.stats.UnitsWritten++
		}
		base := fs.reserve(h, sumBlks+n) + sumBlks // the first block's place in the buffer
		for j := 0; j < n; j++ {
			blk := payload[i+j]
			if len(blk) != bs {
				return nil, fmt.Errorf("lfs: placing block of %d bytes, want %d", len(blk), bs)
			}
			copy(h.buf[(base+j)*bs:], blk)
			addrs = append(addrs, layout.DiskAddr(fs.blockSector(h.seg, h.blk+sumBlks+j)))
			if ages != nil {
				hdr.Age = max(hdr.Age, ages[i+j])
			} else {
				hdr.Age = now
			}
		}
		hdr.DataCRC = layout.ContinueDataChecksum(hdr.DataCRC, h.buf[base*bs:(base+n)*bs])
		hdr.NBlocks += n
		at := h.unit - h.pending
		encodeSummary(hdr, refs[i:i+n], h.buf[at*bs:(at+hdr.SumBlocks)*bs])
		h.blk += sumBlks + n
		fs.stats.BlocksWritten += int64(sumBlks + n)
		cost := int64(n) * sim.CostSegBlockLayout
		if !joins {
			cost += sim.CostSegWriteSetup
		}
		fs.cpu.Charge(cost)
		i += n
	}
	fs.wr.addrs = addrs
	return addrs, nil
}

// flushPendingIO issues the unissued run of each open head as one
// asynchronous sequential write, hot before cold; the head's next unit
// starts at the front of its buffer again, and no batch joins an issued
// unit. The issue order is what crash recovery sees: replay stops at the
// first missing serial, so a unit that persisted ahead of a lost
// earlier-serial unit is simply discarded with everything after it —
// none of it was acknowledged before a sync drained the queue. Hot before
// cold is also what lets a cleaner pass's cold unit point into hot units
// of later serials (placeBlocks): a surviving cold run implies its hot run.
func (fs *FS) flushPendingIO() error {
	bs := fs.cfg.BlockSize
	for class := writeClass(0); class < numClasses; class++ {
		h := &fs.heads[class]
		if !h.open || h.blk == h.pending {
			continue
		}
		fs.cpu.Charge(sim.CostDiskOpSetup)
		// Attribution: the cold head only ever carries cleaner
		// relocations; the hot head carries log appends except when
		// the cleaner's flush rides it (fs.cleaning), matching the
		// paper's write-cost accounting.
		cause := disk.CauseLogAppend
		if fs.cleaning || class == classCold {
			cause = disk.CauseCleanerWrite
		}
		if err := fs.d.WriteSectors(fs.blockSector(h.seg, h.pending),
			h.buf[:(h.blk-h.pending)*bs], false, cause, "segment write"); err != nil {
			return err
		}
		h.pending, h.joinable = h.blk, false
	}
	return nil
}

// advanceSegment seals the class's active segment and activates the
// next clean one.
func (fs *FS) advanceSegment(class writeClass) error {
	if err := fs.flushPendingIO(); err != nil {
		return err
	}
	h := &fs.heads[class]
	fs.usage[h.seg].State = segDirty
	fs.stats.SegmentsSealed++
	next, ok := fs.findCleanSegmentFrom(h.seg)
	if !ok {
		return fmt.Errorf("%w: no clean segments", vfs.ErrNoSpace)
	}
	fs.activateHead(class, next)
	return nil
}

// openColdHead claims a clean segment for the cold stream, scanning
// from the hot head so the two streams stay near each other on disk.
// Returns false when the log cannot spare one — taking the last clean
// segment would starve the hot head — and the relocation shares the
// hot head instead.
func (fs *FS) openColdHead() bool {
	if fs.cleanCount <= 1 {
		return false
	}
	next, ok := fs.findCleanSegmentFrom(fs.heads[classHot].seg)
	if !ok {
		return false
	}
	fs.activateHead(classCold, next)
	return true
}

// activateHead points the class's head at seg and readies it for
// appends. The segment's age resets: it holds no data yet, so its
// first credit establishes the true age.
func (fs *FS) activateHead(class writeClass, seg int) {
	h := &fs.heads[class]
	h.seg, h.blk, h.pending, h.open, h.joinable = seg, 0, 0, true, false
	fs.usage[seg].State = segActive
	fs.usage[seg].Age = 0
	fs.cleanCount--
}

// findCleanSegmentFrom scans forward (wrapping) from the given
// segment for a clean one, keeping each stream roughly sequential on
// disk.
func (fs *FS) findCleanSegmentFrom(start int) (int, bool) {
	n := int(fs.sb.Segments)
	for i := 1; i <= n; i++ {
		seg := (start + i) % n
		if fs.usage[seg].State == segClean {
			return seg, true
		}
	}
	return 0, false
}
