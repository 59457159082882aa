package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

// ckptMagic2 identifies a checkpoint region: 32-byte usage entries
// carrying data age, plus the cold head position. A region with any
// other magic is rejected — including "LCKP", the format this one
// replaced, whose volumes also carry log units under a payload
// checksum roll-forward no longer accepts.
const ckptMagic2 = 0x4C434B32 // "LCK2"

// ckptHeaderSize is the fixed header of a checkpoint region.
const ckptHeaderSize = 96

// ckptNoColdHead is the on-disk sentinel for "cold head closed".
const ckptNoColdHead = 0xFFFFFFFF

// checkpointState is the dynamic file system state snapshotted into a
// checkpoint region (§4.4.1): both log heads, the unit serial
// counter, the locations of every inode map block, and the segment
// usage array. ColdOpen records whether the cold (cleaner-relocation)
// head had an open segment; HeadSeg/HeadBlk are the hot head.
type checkpointState struct {
	Serial      uint64
	Timestamp   sim.Time
	HeadSeg     int
	HeadBlk     int
	WriteSerial uint64
	LiveBytes   int64
	ColdOpen    bool
	ColdSeg     int
	ColdBlk     int
	ImapAddrs   []layout.DiskAddr
	Usage       []segUsage
}

// encodeCheckpoint serialises the state into p (one checkpoint
// region).
func encodeCheckpoint(st checkpointState, p []byte) {
	clear(p)
	le := binary.LittleEndian
	le.PutUint32(p[0:], ckptMagic2)
	le.PutUint64(p[4:], st.Serial)
	le.PutUint64(p[12:], uint64(st.Timestamp))
	le.PutUint32(p[20:], uint32(st.HeadSeg))
	le.PutUint32(p[24:], uint32(st.HeadBlk))
	le.PutUint64(p[28:], st.WriteSerial)
	le.PutUint64(p[36:], uint64(st.LiveBytes))
	le.PutUint32(p[44:], uint32(len(st.ImapAddrs)))
	le.PutUint32(p[48:], uint32(len(st.Usage)))
	coldSeg, coldBlk := uint32(ckptNoColdHead), uint32(ckptNoColdHead)
	if st.ColdOpen {
		coldSeg, coldBlk = uint32(st.ColdSeg), uint32(st.ColdBlk)
	}
	le.PutUint32(p[52:], coldSeg)
	le.PutUint32(p[56:], coldBlk)
	for i, a := range st.ImapAddrs {
		layout.SetAddrAt(p[ckptHeaderSize:], i, a)
	}
	off := ckptHeaderSize + len(st.ImapAddrs)*layout.AddrSize
	for i := range st.Usage {
		st.Usage[i].encode(p[off:])
		off += segUsageEntrySize
	}
	le.PutUint32(p[off:], layout.Checksum(p[:off]))
}

// decodeCheckpoint parses and verifies a checkpoint region.
func decodeCheckpoint(p []byte) (checkpointState, error) {
	if len(p) < ckptHeaderSize {
		// Truncated images (a cut-short dd, a partial download) must
		// fail cleanly in lfsck/lfsdump, not panic on a header read.
		return checkpointState{}, fmt.Errorf("lfs: checkpoint region truncated: %d bytes", len(p))
	}
	le := binary.LittleEndian
	if le.Uint32(p[0:]) != ckptMagic2 {
		return checkpointState{}, fmt.Errorf("lfs: bad checkpoint magic")
	}
	st := checkpointState{
		Serial:      le.Uint64(p[4:]),
		Timestamp:   sim.Time(le.Uint64(p[12:])),
		HeadSeg:     int(le.Uint32(p[20:])),
		HeadBlk:     int(le.Uint32(p[24:])),
		WriteSerial: le.Uint64(p[28:]),
		LiveBytes:   int64(le.Uint64(p[36:])),
	}
	if coldSeg := le.Uint32(p[52:]); coldSeg != ckptNoColdHead {
		st.ColdOpen = true
		st.ColdSeg = int(coldSeg)
		st.ColdBlk = int(le.Uint32(p[56:]))
	}
	nImap := int(le.Uint32(p[44:]))
	nSegs := int(le.Uint32(p[48:]))
	need := ckptHeaderSize + nImap*layout.AddrSize + nSegs*segUsageEntrySize + 4
	if need > len(p) {
		return checkpointState{}, fmt.Errorf("lfs: checkpoint region truncated")
	}
	crcOff := need - 4
	if layout.Checksum(p[:crcOff]) != le.Uint32(p[crcOff:]) {
		return checkpointState{}, fmt.Errorf("lfs: checkpoint checksum mismatch")
	}
	st.ImapAddrs = make([]layout.DiskAddr, nImap)
	for i := range st.ImapAddrs {
		st.ImapAddrs[i] = layout.AddrAt(p[ckptHeaderSize:], i)
	}
	off := ckptHeaderSize + nImap*layout.AddrSize
	st.Usage = make([]segUsage, nSegs)
	for i := range st.Usage {
		st.Usage[i] = decodeSegUsage(p[off:])
		off += segUsageEntrySize
	}
	return st, nil
}

// ckptRegion is one checkpoint region as read back: its state, or why it
// is no valid checkpoint of the volume.
type ckptRegion struct {
	st  checkpointState
	err error
}

// readCheckpoints is the one reader of a volume's two checkpoint regions,
// for Mount, Dump and DumpImap. It reads each through buf (one region's
// worth) and judges it whole: it must decode (magic, length, checksum),
// have the geometry of the volume sb describes, and put its log heads
// inside the segment area.
func readCheckpoints(d *disk.Disk, sb superblock, buf []byte, cause disk.IOCause, label string) ([2]ckptRegion, error) {
	var regions [2]ckptRegion
	segs := int(sb.Segments)
	for i, sector := range []int64{int64(sb.Ckpt0Sector), int64(sb.Ckpt1Sector)} {
		if err := d.ReadSectors(sector, buf, cause, label); err != nil {
			return regions, err
		}
		r := &regions[i]
		r.st, r.err = decodeCheckpoint(buf)
		switch {
		case r.err != nil:
		case len(r.st.Usage) != segs || len(r.st.ImapAddrs) != imapBlockCount(int(sb.MaxInodes), int(sb.BlockSize)):
			r.err = errors.New("lfs: checkpoint geometry mismatch")
		case r.st.HeadSeg < 0 || r.st.HeadSeg >= segs || (r.st.ColdOpen && (r.st.ColdSeg < 0 || r.st.ColdSeg >= segs)):
			r.err = errors.New("lfs: checkpoint head outside the segment area")
		}
	}
	return regions, nil
}

// newestCheckpoint returns the state of the valid region with the higher
// serial (region 0 on a tie): a torn or damaged region leaves the other
// to recover from.
func newestCheckpoint(r [2]ckptRegion) (checkpointState, error) {
	switch {
	case r[0].err == nil && (r[1].err != nil || r[0].st.Serial >= r[1].st.Serial):
		return r[0].st, nil
	case r[1].err == nil:
		return r[1].st, nil
	}
	return checkpointState{}, errors.New("lfs: no valid checkpoint region; volume is not formatted or is damaged")
}

// Checkpoint forces all dirty state to the log and writes a
// checkpoint region. After it returns, a crash loses nothing that
// preceded the call (§4.4.1).
func (fs *FS) Checkpoint() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.checkpoint()
}

// checkpoint is Checkpoint without the lock, for internal callers.
func (fs *FS) checkpoint() error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	if err := fs.flush(flushCheckpoint); err != nil {
		return err
	}
	// Release cleaner-reclaimed segments between the flush and the
	// region write: the flush just logged the relocated copies and
	// the new inode map, so the region write about to be issued lands
	// after them in the store, and any mount that reads this
	// checkpoint also sees the relocations. If the region write never
	// persists, recovery falls back to the previous checkpoint — and
	// since nothing can write into the released segments before this
	// function returns, their old contents are still intact for it.
	fs.flipPendingClean()
	return fs.writeCheckpoint()
}

// flipPendingClean makes every segPending segment reusable. Only
// checkpoint may call it; see the ordering argument there.
func (fs *FS) flipPendingClean() {
	if fs.pendingClean == 0 {
		return
	}
	for i := range fs.usage {
		if fs.usage[i].State == segPending {
			fs.usage[i].State = segClean
			fs.cleanCount++
		}
	}
	fs.pendingClean = 0
}

// writeCheckpoint serialises the current state into the next
// checkpoint region (the two regions alternate) with a synchronous
// write.
func (fs *FS) writeCheckpoint() error {
	fs.cpu.Charge(sim.CostCheckpointSetup)
	st := checkpointState{
		Serial:      fs.ckptSerial + 1,
		Timestamp:   fs.clock.Now(),
		HeadSeg:     fs.heads[classHot].seg,
		HeadBlk:     fs.heads[classHot].blk,
		WriteSerial: fs.writeSerial,
		LiveBytes:   fs.liveBytes,
		ColdOpen:    fs.heads[classCold].open,
		ColdSeg:     fs.heads[classCold].seg,
		ColdBlk:     fs.heads[classCold].blk,
		ImapAddrs:   fs.imap.blockAddrs,
		Usage:       fs.usage,
	}
	if fs.ckptBuf == nil {
		fs.ckptBuf = make([]byte, fs.sb.CkptBytes)
	}
	buf := fs.ckptBuf
	encodeCheckpoint(st, buf) // clears it first
	sector := int64(fs.sb.Ckpt0Sector)
	if st.Serial%2 == 1 {
		sector = int64(fs.sb.Ckpt1Sector)
	}
	fs.cpu.Charge(sim.CostDiskOpSetup)
	if err := fs.d.WriteSectors(sector, buf, true, disk.CauseCheckpoint, "checkpoint"); err != nil {
		return err
	}
	fs.ckptSerial = st.Serial
	fs.lastCkpt = fs.clock.Now()
	fs.stats.Checkpoints++
	return nil
}

// Mount attaches a formatted LFS. Recovery is the paper's headline:
// read the newest valid checkpoint region, restore the inode map and
// segment usage array from it, and — when roll-forward is enabled —
// replay the log units written after the checkpoint.
func Mount(d *disk.Disk, cfg Config) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Attach the trace recorder before the first recovery read so the
	// mount-time I/O is part of the trace. The nil guard matters: a
	// typed-nil *obs.Recorder stored in the disk.Tracer interface
	// would look non-nil to the disk.
	if cfg.Trace != nil {
		d.SetTracer(cfg.Trace)
	}
	sb, err := readSuperblock(d, cfg.BlockSize, disk.CauseRecovery, "mount: superblock")
	if err != nil {
		return nil, err
	}
	if sb.BlockSize != uint32(cfg.BlockSize) || sb.SegmentSize != uint32(cfg.SegmentSize) {
		return nil, fmt.Errorf("lfs: volume is %d/%d byte blocks/segments, config wants %d/%d",
			sb.BlockSize, sb.SegmentSize, cfg.BlockSize, cfg.SegmentSize)
	}
	if sb.MaxInodes != uint32(cfg.MaxInodes) {
		return nil, fmt.Errorf("lfs: volume has %d inodes, config wants %d", sb.MaxInodes, cfg.MaxInodes)
	}
	fs := newSkeleton(d, cfg, sb)
	// Attach the phase-attribution hook: every blocking request's
	// queue-wait/service split feeds the running operation's latency
	// decomposition. Pure arithmetic on already-computed durations,
	// so attaching never perturbs the timeline.
	d.SetWaiter(fs.op)

	// Recover from the newest valid checkpoint region. What
	// decodeCheckpoint keeps it copies out, so both are read into the
	// buffer the volume's own checkpoints will be encoded in.
	fs.ckptBuf = make([]byte, sb.CkptBytes)
	regions, err := readCheckpoints(d, sb, fs.ckptBuf, disk.CauseRecovery, "mount: checkpoint")
	if err != nil {
		return nil, err
	}
	best, err := newestCheckpoint(regions)
	if err != nil {
		return nil, err
	}
	// The simulated clock restarts at zero with every process, but the
	// volume's history does not: advance to the checkpoint's capture
	// time so everything stamped from here on — log units, checkpoint
	// timestamps, cleaner age estimates — postdates everything already
	// in the log. Roll-forward's stale-unit filter relies on this.
	fs.clock.AdvanceTo(best.Timestamp)
	fs.ckptSerial = best.Serial
	fs.writeSerial = best.WriteSerial
	hot := &fs.heads[classHot]
	hot.seg, hot.blk, hot.pending, hot.open = best.HeadSeg, best.HeadBlk, best.HeadBlk, true
	cold := &fs.heads[classCold]
	cold.open = best.ColdOpen
	if best.ColdOpen {
		cold.seg, cold.blk, cold.pending = best.ColdSeg, best.ColdBlk, best.ColdBlk
	}
	fs.liveBytes = best.LiveBytes
	copy(fs.usage, best.Usage)
	copy(fs.imap.blockAddrs, best.ImapAddrs)
	for i := range fs.usage {
		// segPending is never written to a checkpoint; seeing it in
		// an image means corruption. Demote to dirty: the cleaner
		// will re-examine the segment instead of overwriting it.
		if fs.usage[i].State == segPending {
			fs.usage[i].State = segDirty
		}
	}
	fs.usage[hot.seg].State = segActive
	if cold.open {
		fs.usage[cold.seg].State = segActive
	}

	// Load the inode map blocks named by the checkpoint; only they
	// become resident.
	blk := fs.span[:cfg.BlockSize]
	for idx, addr := range fs.imap.blockAddrs {
		if addr.IsNil() {
			continue
		}
		if err := d.ReadSectors(int64(addr), blk, disk.CauseInodeMap, "mount: imap"); err != nil {
			return nil, err
		}
		fs.imap.decodeBlock(idx, blk)
	}
	fs.imap.rebuildFreeState()
	fs.recountClean()
	fs.lastCkpt = fs.clock.Now()

	// Without roll-forward (the paper's "current implementation")
	// everything after the checkpoint is discarded and the log resumes
	// at the checkpointed head.
	if cfg.RollForward {
		if err := fs.rollForward(best.Timestamp); err != nil {
			return nil, err
		}
	}
	// Register the metrics plane last so its probes see fully
	// recovered state, and take the baseline sample at mount time.
	if err := fs.initMetrics(); err != nil {
		return nil, err
	}
	fs.cfg.Metrics.Tick(fs.clock.Now())
	return fs, nil
}

// recountClean recomputes the clean-segment counter from the usage
// array.
func (fs *FS) recountClean() {
	n := 0
	for i := range fs.usage {
		if fs.usage[i].State == segClean {
			n++
		}
	}
	fs.cleanCount = n
}

// rollForward replays log units written after the checkpoint (§4.4:
// "using information in the segment summary blocks, LFS can roll
// forward from the last checkpoint, updating metadata structures such
// as the inode map"), frees what the tail unlinked, and checkpoints.
// A unit must sit at the expected position with the expected serial,
// stamped no earlier than ckptTime, and with an intact data checksum;
// the first that does not ends the recoverable log. The time check
// matters because after a crash, recovery and a second crash the head
// can sit over leftovers of an earlier epoch whose serials coincide
// with the expected ones (Mount's clock advance keeps the comparison
// sound across process restarts).
//
// With two append streams the units of one serial sequence interleave
// across two disk positions, so each expected serial is probed at
// every place the writer could have put it: the current position of
// each open head, then — when a head is full or the cold head was
// closed at the checkpoint — block 0 of the clean segment that head
// would have advanced to (the writer's segment choice is a
// deterministic function of state recovery mirrors). The summary's
// class byte pins each unit to its stream, so a probe never misreads
// a unit of the other head. Head movements commit only after the
// expected unit validates at the new position.
func (fs *FS) rollForward(ckptTime sim.Time) error {
	st := &tailState{inodeBlk: layout.NilAddr, links: map[layout.Ino]int{}, known: map[layout.Ino]bool{}}
	applied, err := true, error(nil)
	for applied && err == nil {
		applied, err = fs.replayNextUnit(ckptTime, st)
	}
	if err != nil || fs.stats.RollForwardUnits == 0 {
		return err
	}
	if err := fs.freeUnlinked(st); err != nil {
		return err
	}
	fs.imap.rebuildFreeState()
	return fs.checkpoint() // stabilise the recovered state immediately
}

// tailState is what roll-forward carries from unit to unit: the inode
// block recordAt read last and, per inode the tail moved or named in a
// directory block it replaced, the entries it added minus those it took
// away, plus, once known, those at the checkpoint. A damaged tail (a
// directory block that does not parse) frees nothing on a guess.
type tailState struct {
	inodeBlk layout.DiskAddr
	links    map[layout.Ino]int
	known    map[layout.Ino]bool
	damaged  bool
}

// freeUnlinked frees, the writer's way, each inode still allocated that no
// directory entry reaches once the tail's entries are counted against the
// checkpoint's. Its version is bumped, so its blocks and slot go dead. A
// freed directory takes its entries with it, so the pass repeats until it
// frees nothing.
func (fs *FS) freeUnlinked(st *tailState) error {
	for freed := true; freed; {
		freed = false
		for ino, high := layout.RootIno+1, fs.imap.highIno(); ino <= high && !st.damaged; ino++ {
			n, touched := st.links[ino]
			e := fs.imap.peek(ino)
			if !touched && !st.known[ino] || !e.Allocated || n > 0 {
				continue
			}
			// Counts the checkpoint's entries if no move did; moveEntry reuses the block.
			if _, err := fs.recordAt(ino, e, st); err != nil {
				return err
			}
			if st.links[ino] > 0 || st.damaged {
				continue
			}
			none := layout.NewInode(ino, 0)
			if err := fs.moveEntry(ino, imapEntry{Addr: layout.NilAddr, Version: e.Version + 1}, &none, st); err != nil {
				return err
			}
			freed = true
		}
	}
	return nil
}

// replayNextUnit locates, validates, and applies the unit carrying
// the next expected write serial. Returns false (with no state
// change) when no candidate position holds it: the end of the
// recoverable log.
func (fs *FS) replayNextUnit(ckptTime sim.Time, st *tailState) (bool, error) {
	bs := fs.cfg.BlockSize
	// In-place candidates: each open head with room for a unit.
	for class := writeClass(0); class < numClasses; class++ {
		h := &fs.heads[class]
		if !h.open || maxUnitBlocks(fs.cfg.blocksPerSegment()-h.blk, bs) == 0 {
			continue
		}
		ok, err := fs.replayUnitAt(class, h.seg, h.blk, ckptTime, st, false)
		if ok || err != nil {
			return ok, err
		}
	}
	// Advance candidates: a full head moved on to the clean segment
	// the writer's scan would pick; a closed cold head would have
	// opened scanning from the hot position.
	for class := writeClass(0); class < numClasses; class++ {
		h := &fs.heads[class]
		from := h.seg
		if !h.open {
			from = fs.heads[classHot].seg // only the cold head closes
		} else if maxUnitBlocks(fs.cfg.blocksPerSegment()-h.blk, bs) != 0 {
			continue // had room: the in-place probe already said no
		}
		cand, found := fs.findCleanSegmentFrom(from)
		if !found {
			continue
		}
		ok, err := fs.replayUnitAt(class, cand, 0, ckptTime, st, true)
		if ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// replayUnitAt probes (seg, blk) for a valid unit of the given class
// carrying the expected serial and applies it. With activate set the
// head is moved to seg first — sealing its previous segment — but
// only once the unit has fully validated, so a failed probe leaves
// recovery state untouched.
func (fs *FS) replayUnitAt(class writeClass, seg, blk int, ckptTime sim.Time, st *tailState, activate bool) (bool, error) {
	bs := fs.cfg.BlockSize
	// What this stream expects next: the next serial, of this class, and
	// written no earlier than the checkpoint — an older unit is a leftover
	// of an earlier log epoch, whatever serial it carries.
	expected := func(h summaryHeader) bool {
		return h.Serial == fs.writeSerial && h.Class == class && h.Timestamp >= ckptTime
	}
	// Read a candidate summary header (one block is enough to hold
	// the header; entries may spill into further blocks) into the
	// transfer buffer: most probes find nothing, and a head nothing is
	// replayed into — the cold one, on every volume that never cleaned
	// — needs no buffer.
	head := fs.span[:bs]
	if err := fs.d.ReadSectors(fs.blockSector(seg, blk), head, disk.CauseRecovery, "recovery: summary probe"); err != nil {
		return false, err
	}
	probe, err := decodeSummaryHeader(head)
	if err != nil || !expected(probe) || probe.checkBounds(blk, fs.cfg.blocksPerSegment()) != nil {
		return false, nil // end of this stream, a torn header, or a leftover
	}
	// Read the full unit into the front of the class's head buffer, idle
	// until recovery ends, and judge it whole.
	hd := &fs.heads[class]
	n := probe.SumBlocks + probe.NBlocks
	fs.reserve(hd, n)
	if err := fs.d.ReadSectors(fs.blockSector(seg, blk), hd.buf[:n*bs], disk.CauseRecovery, "recovery: unit"); err != nil {
		return false, err
	}
	u, err := readUnit(hd.buf[:n*bs], 0, bs, nil)
	if err != nil || !expected(u.summaryHeader) {
		return false, nil // torn: the unit never fully reached disk
	}
	if activate {
		if fs.heads[class].open {
			fs.usage[fs.heads[class].seg].State = segDirty
		}
		fs.activateHead(class, seg)
	}
	// Apply the unit the writer's way: each inode record it carries, in
	// an inode block or inline in its summary, moves that inode's entry;
	// data and indirect blocks count once a replayed inode reaches them,
	// and inode-map blocks not at all (the checkpoint that ends
	// roll-forward writes the map). The unit only dates its segment (a
	// credit of nothing) with its summary's age: the victim's for
	// relocations, the write time where none is set.
	for j, ref := range u.refs {
		if ref.Kind == kindInodes {
			if err := fs.replayRecords(u.data[j*bs:(j+1)*bs], fs.blockSector(seg, blk+u.SumBlocks+j), 0, st); err != nil {
				return false, err
			}
		}
	}
	sumBlk, first := u.inlineAt(blk, bs)
	if err := fs.replayRecords(u.inline, fs.blockSector(seg, sumBlk), first, st); err != nil {
		return false, err
	}
	fs.creditBlock(layout.DiskAddr(fs.blockSector(seg, blk)), 0, cmp.Or(u.Age, u.Timestamp))
	hd.blk, hd.pending = blk+u.end, blk+u.end
	fs.writeSerial++
	fs.stats.RollForwardUnits++
	return true, nil
}

// replayRecords moves the entry of each inode whose record recs holds:
// the record slots from first on of the block at sector block.
func (fs *FS) replayRecords(recs []byte, block int64, first int, st *tailState) error {
	for i := 0; i+layout.InodeSize <= len(recs); i += layout.InodeSize {
		rec, err := layout.DecodeInode(recs[i:])
		if err != nil || !rec.Allocated() || rec.Ino < 1 || rec.Ino > fs.imap.maxIno() {
			continue // an empty slot, or a number the map has no entry for
		}
		e := fs.imap.peek(rec.Ino)
		e.Allocated, e.Version = true, rec.Gen
		e.Addr, e.Slot = slotAddr(layout.DiskAddr(block), first+i/layout.InodeSize)
		if err := fs.moveEntry(rec.Ino, e, &rec, st); err != nil {
			return err
		}
	}
	return nil
}

// moveEntry sets ino's inode-map entry to e, whose record is rec, the way
// the writer moved it: the slot of the version it named goes dead, with
// every block that version holds and rec does not, and the reverse goes
// live; the directory blocks that change are counted into st.
func (fs *FS) moveEntry(ino layout.Ino, e imapEntry, rec *layout.Inode, st *tailState) error {
	cur := fs.imap.get(ino)
	prev, err := fs.recordAt(ino, *cur, st)
	if err != nil {
		return err
	}
	if cur.Allocated {
		fs.killBlock(cur.Addr, layout.InodeSize)
	}
	if e.Allocated {
		fs.creditBlock(e.Addr, layout.InodeSize, 0)
	}
	*cur = e
	fs.imap.markDirty(ino)
	ptrs := fs.span[:5*fs.cfg.BlockSize]
	dir := [2]bool{prev.Mode.IsDir(), rec.Mode.IsDir()}
	for i := range prev.Direct {
		if err := fs.movePointer(prev.Direct[i], rec.Direct[i], 0, ptrs, dir, st); err != nil {
			return err
		}
	}
	if err := fs.movePointer(prev.Indirect, rec.Indirect, 1, ptrs, dir, st); err != nil {
		return err
	}
	return fs.movePointer(prev.DoubleIndirect, rec.DoubleIndirect, 2, ptrs, dir, st)
}

// recordAt reads the inode record ino's current entry e names from the
// medium, without bringing it in core. The inode block read last stays in
// the span past the pointer blocks, named by st.inodeBlk: roll-forward
// writes nothing until it ends, so an address names one content
// throughout, and a tail that rewrites a few files over and over
// (fsync-bound clients) finds most of their previous records there. A
// free entry, or a slot that holds no record of ino, names a file that
// holds no blocks. The first record read for ino is the checkpoint's, so
// its entries then are added to ino's count: one for a directory, the link
// count for a file, none for a free number. An allocated entry that names
// no record of ino damages the tail.
func (fs *FS) recordAt(ino layout.Ino, e imapEntry, st *tailState) (layout.Inode, error) {
	rec := layout.NewInode(ino, 0)
	if seg := fs.segOf(e.Addr); e.Allocated && seg >= 0 && int(e.Slot) < inodesPerSector {
		bs := fs.cfg.BlockSize
		blk := fs.blockStart(seg, e.Addr)
		if blk != st.inodeBlk {
			if err := fs.d.ReadSectors(int64(blk), fs.span[5*bs:6*bs], disk.CauseRecovery, "recovery: previous inode"); err != nil {
				return rec, err
			}
			st.inodeBlk = blk
		}
		slot := int(e.Addr-blk)*inodesPerSector + int(e.Slot)
		if r, err := layout.DecodeInode(fs.span[5*bs+slot*layout.InodeSize:]); err == nil && r.Ino == ino {
			rec = r
		}
	}
	if !st.known[ino] {
		st.known[ino] = true
		switch {
		case rec.Mode.IsDir():
			st.links[ino]++
		case rec.Allocated():
			st.links[ino] += int(rec.Nlink)
		}
		st.damaged = st.damaged || e.Allocated && !rec.Allocated()
	}
	return rec, nil
}

// movePointer moves one block pointer of a file from old to new by the
// writer's rule: old's block goes dead and new's live, and under an
// indirect block depth levels above the data so does every entry that
// differs. An address that did not change names a subtree that did not
// either, so only the pointer blocks the tail rewrote are read; no block,
// or one outside the segment area, holds no pointers. A data block of a
// directory (dir says on which side) has its entries counted into st. buf
// holds two blocks per level and one more.
func (fs *FS) movePointer(old, new layout.DiskAddr, depth int, buf []byte, dir [2]bool, st *tailState) error {
	if old == new {
		return nil
	}
	bs := fs.cfg.BlockSize
	fs.killBlock(old, int64(bs))
	fs.creditBlock(new, int64(bs), 0)
	for i, a := range [2]layout.DiskAddr{old, new} {
		if depth > 0 || !dir[i] || a.IsNil() {
			continue
		}
		if fs.segOf(a) < 0 {
			st.damaged = true
			continue
		}
		if err := fs.d.ReadSectors(int64(a), buf[:bs], disk.CauseRecovery, "recovery: directory block"); err != nil {
			return err
		}
		entries, err := layout.DirBlockEntries(buf[:bs])
		st.damaged = st.damaged || err != nil
		for _, en := range entries {
			st.links[en.Ino] += 2*i - 1 // old's entries go, new's come
		}
	}
	if depth == 0 {
		return nil
	}
	for i, a := range [2]layout.DiskAddr{old, new} {
		if p := buf[i*bs : (i+1)*bs]; fs.segOf(a) < 0 {
			layout.FillNil(p)
		} else if err := fs.d.ReadSectors(int64(a), p, disk.CauseRecovery, "recovery: pointer block"); err != nil {
			return err
		}
	}
	for i := range layout.AddrsPerBlock(bs) {
		if err := fs.movePointer(layout.AddrAt(buf, i), layout.AddrAt(buf[bs:], i), depth-1, buf[2*bs:], dir, st); err != nil {
			return err
		}
	}
	return nil
}
