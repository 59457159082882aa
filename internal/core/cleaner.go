package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/sim"
)

// CleanResult summarises one cleaner activation: what it added to the
// cleaner's Stats counters.
type CleanResult struct {
	// SegmentsCleaned is the number of segments reclaimed.
	SegmentsCleaned int
	// BlocksExamined counts blocks whose liveness was checked.
	BlocksExamined int
	// LiveCopied counts live blocks rewritten to the head of the
	// log.
	LiveCopied int
	// BytesReclaimed is the *net* clean log space generated:
	// segments reclaimed minus the space the relocated live data
	// consumes at the log head. This is the y-axis of Figure 5 —
	// cleaning a 90%-utilised segment frees a whole segment but
	// immediately fills 90% of another, so it nets almost nothing.
	BytesReclaimed int64
}

// cleanSince is what the cleaner added to s's counters since before.
func (s Stats) cleanSince(before Stats) CleanResult {
	return CleanResult{
		SegmentsCleaned: int(s.SegmentsCleaned - before.SegmentsCleaned),
		BlocksExamined:  int(s.CleanerBlocksExamined - before.CleanerBlocksExamined),
		LiveCopied:      int(s.CleanerLiveCopied - before.CleanerLiveCopied),
		BytesReclaimed:  s.CleanerBytesReclaimed - before.CleanerBytesReclaimed,
	}
}

// CleanUntil runs the cleaner until at least target segments are
// clean (or no candidate remains), mirroring the paper's user-level
// cleaning trigger (§4.3.4: "the user-level process interface allows
// cleaning to be initiated at night or other times of slack usage").
func (fs *FS) CleanUntil(target int) (CleanResult, error) {
	return fs.cleanLocked(func() int { return target })
}

// CleanOnce cleans the single best victim segment, if any.
func (fs *FS) CleanOnce() (CleanResult, error) {
	return fs.cleanLocked(func() int { return fs.cleanCount + 1 })
}

// cleanLocked runs one activation under the lock, toward the target
// that target returns there, and returns what it added to the cleaner's
// counters.
func (fs *FS) cleanLocked(target func() int) (CleanResult, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	before := fs.stats
	err := fs.cleanUntil(target())
	return fs.stats.cleanSince(before), err
}

// cleanUntil is one cleaner activation, without the lock: the writer's
// automatic one, CleanUntil's and CleanOnce's.
func (fs *FS) cleanUntil(target int) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	if fs.cleaning {
		return nil
	}
	fs.cleaning = true
	// Bracket the whole activation — victim reads, relocation writes,
	// mid-run and final checkpoints, and the CPU they charge — as
	// cleaner interference on whichever operation triggered it. The
	// bracket drops the disk's per-request waits meanwhile, so the
	// delta is attributed exactly once.
	cleanT0 := fs.op.Bracket()
	defer func() {
		fs.cleaning = false
		fs.op.EndBracket(cleanT0, obs.PhaseCleaner)
	}()
	fs.stats.CleanerRuns++

	cleaned := false
	// Termination guard: compaction frees only dead bytes, so a
	// bounded number of passes suffices; anything beyond means the
	// target is unreachable (the disk is simply full of live data).
	maxIters := 2*int(fs.sb.Segments) + 16
	for iter := 0; fs.cleanCount+fs.pendingClean < target && iter < maxIters; {
		batch := fs.selectBatch(target - fs.cleanCount - fs.pendingClean)
		if len(batch) == 0 {
			break
		}
		iter += len(batch)
		if err := fs.cleanBatch(batch); err != nil {
			return err
		}
		cleaned = true
		// Reclaimed segments stay segPending — unusable — until a
		// checkpoint records the relocations. Checkpoint mid-run
		// before truly clean segments run out, so the next batch's
		// relocation flush always has somewhere to go. With
		// segregation one relocation flush can claim several
		// segments — opening the cold head, advancing both streams
		// mid-fill, and spilling the pointer-update inode blocks —
		// hence the larger reserve.
		if fs.cleanCount < fs.cleanReserve() && fs.pendingClean > 0 {
			if err := fs.checkpoint(); err != nil {
				return err
			}
		}
	}
	if !cleaned {
		return nil
	}
	// A checkpoint pins the relocated blocks' new addresses and
	// releases the pending segments for reuse; without it a crash could
	// resurrect pointers into segments we are about to overwrite. Its
	// inode-map write is also what kills the victims' map blocks.
	return fs.checkpoint()
}

// selectBatch gathers up to needed victims for one relocation pass,
// stopping when their combined live data would overflow the pass's
// relocation budget. Cleaning several segments per flush is the
// paper's own prescription (§4.3.4 cleans "a few tens of segments at
// a time"): the pointer updates for a victim's relocated blocks dirty
// inode and inode-map blocks, and cleaning one segment per pass pays
// that metadata rewrite per segment — at high utilization the
// metadata alone can exceed what a dense victim frees, so the cleaner
// consumes clean segments faster than it makes them. Batching pays it
// once per batch.
func (fs *FS) selectBatch(needed int) []int {
	// The budget is expressed in live bytes to relocate: about two
	// destination segments' worth, capped by the clean segments actually
	// available to absorb the copies.
	budget := relocationSegments * int64(fs.sb.SegmentSize)
	if avail := int64(fs.cleanCount-2) * int64(fs.sb.SegmentSize); budget > avail {
		budget = avail
	}
	batch := fs.cl.batch[:0]
	var live int64
	for len(batch) < needed {
		victim, ok := fs.selectVictim(batch)
		if !ok {
			break
		}
		vl := fs.usage[victim].Live
		// The first victim is always admitted — otherwise a cleaner
		// under space pressure could never start.
		if len(batch) > 0 && live+vl > budget {
			break
		}
		batch = append(batch, victim)
		live += vl
	}
	fs.cl.batch = batch
	return batch
}

// cleanReserve is the emergency clean-segment floor: below it the
// cleaner checkpoints mid-run to release pending segments; at or under
// it the space guard may pick greedy. With segregation one relocation
// flush can claim more segments (the cold head opens and both streams
// can advance mid-fill), hence the larger reserve.
func (fs *FS) cleanReserve() int {
	if fs.cfg.Segregation {
		return 5
	}
	return 3
}

// selectVictim picks the next segment to clean according to the
// configured policy, skipping excl (the few victims already in the
// current batch). Segments at or above MinLiveFraction utilisation are
// never picked (§4.3.4). Greedy scores a segment by the free space it
// yields, 1-u; cost-benefit (§3.6) weighs that by the age of the
// segment's youngest data over the cost of reading and rewriting it,
// (1-u)·age/(1+u), with age the seconds since Age, plus one.
//
// Space guard: cost-benefit favors old, dense victims, which consume
// nearly a full clean segment of copies to net a sliver of free space.
// With the clean reserve exhausted that is a death spiral, so survival
// overrides age and the pick is greedy — once the pool is both at or
// under the reserve and below the cleaner's activation threshold. On a
// volume whose threshold is at or under the reserve, a pass thus runs
// cost-benefit until it has drawn the pool below where it started.
func (fs *FS) selectVictim(excl []int) (int, bool) {
	guard := fs.cleanCount <= fs.cleanReserve() && fs.cleanCount < fs.cfg.cleanThreshold(int(fs.sb.Segments))
	costBenefit := fs.cfg.Policy == CleanCostBenefit && !guard
	segSize := float64(fs.sb.SegmentSize)
	bestScore := 0.0
	best := -1
	now := fs.clock.Now()
	for seg := range fs.usage {
		u := &fs.usage[seg]
		if u.State != segDirty || slices.Contains(excl, seg) {
			continue
		}
		util := float64(u.Live) / segSize
		if util >= fs.cfg.MinLiveFraction {
			continue
		}
		score := 1 - util
		if costBenefit {
			score = score * (now.Sub(u.Age).Seconds() + 1) / (1 + util)
		}
		if best < 0 || score > bestScore {
			best, bestScore = seg, score
		}
	}
	return best, best >= 0
}

// victimStat is what cleanBatch remembers of a revived victim until the
// relocation flush lets it reclaim the segment and count the work.
type victimStat struct {
	seg              int
	copied, examined int
	util             float64
}

// relocationSegments is the most live data, in segments, that selectBatch
// hands one pass: what the pass's staging memory is sized for.
const relocationSegments = 2

// cleanerScratch is the cleaner's working memory, kept on the FS like
// the segment writer's: the batch selectBatch hands to cleanBatch,
// cleanBatch's per-victim records, and what a pass takes from its
// victims — the one segment-sized read buffer; the summary entries of the
// log unit being walked, in refs; and moves: in revive order, the live
// data and indirect blocks the pass's flush relocates; dirtied: the
// inodes the pass made dirty (passDirtied), which splitPassInodes sorts
// into inos and ages. The bytes of those blocks with no cached copy are
// appended to staging, so a pass holds its relocation budget plus one
// segment however many victims it takes, and only the pass owns any of
// it: cleanBatch releases it on every way out.
type cleanerScratch struct {
	batch   []int
	stats   []victimStat
	victim  []byte
	staging []byte
	refs    []blockRef
	moves   []logBlock
	dirtied []inodeAge
	inos    []layout.Ino
	ages    []sim.Time
}

// inodeAge is an inode a cleaner pass dirtied and the age of the data
// that dirtied it.
type inodeAge struct {
	ino layout.Ino
	age sim.Time
}

// passDirtied notes that the running pass made ino dirty, clean until
// now, for data of the given age: a live record revived from a victim,
// or an inode whose pointer a cold relocation moved. With segregation on
// its record goes to the cold head with that age (splitPassInodes); an
// inode the application had dirtied before the pass stays hot.
func (fs *FS) passDirtied(ino layout.Ino, age sim.Time) {
	if fs.cfg.Segregation {
		fs.cl.dirtied = append(fs.cl.dirtied, inodeAge{ino, age})
	}
}

// releaseVictims drops what the pass took from its victims; after a
// failed pass they are still segDirty with every block in place.
func (fs *FS) releaseVictims() {
	fs.cl.moves, fs.cl.staging, fs.cl.dirtied = fs.cl.moves[:0], fs.cl.staging[:0], fs.cl.dirtied[:0]
	cache.Poison(fs.cl.victim)
	cache.Poison(fs.cl.staging[:cap(fs.cl.staging)])
}

// cleanBatch performs the two-phase clean of a batch of segments
// (§4.3.2): phase one reads each victim and identifies its live blocks
// through the summary, the inode map version check, and the inode walk
// (§4.3.3), listing them; phase two lets one segment write copy them all
// to the head of the log, so the pointer-update metadata (inode and
// inode-map blocks) is rewritten once per batch rather than once per
// victim. It runs with fs.cleaning set, so its flush cannot start a
// nested pass over the same scratch.
func (fs *FS) cleanBatch(victims []int) error {
	fs.cl.stats = fs.cl.stats[:0]
	defer fs.releaseVictims()
	for _, seg := range victims {
		if fs.usage[seg].State != segDirty {
			return fmt.Errorf("lfs: cleaning segment %d in state %d", seg, fs.usage[seg].State)
		}
		// Victim utilisation as the selection policy saw it, for the
		// activation record (Figure 5's x-axis).
		util := float64(fs.usage[seg].Live) / float64(fs.sb.SegmentSize)
		copied, examined, err := fs.reviveSegment(seg)
		if err != nil {
			return err
		}
		fs.cl.stats = append(fs.cl.stats, victimStat{seg: seg, copied: copied, examined: examined, util: util})
	}

	// Phase 2: write the listed live blocks to the log head.
	if err := fs.flush(flushAll); err != nil {
		return err
	}
	// The pass has landed: count its work, once, here. A victim nets
	// at least one block, since copied counts only its own blocks.
	for _, vs := range fs.cl.stats {
		// Every live block has been relocated, but the segment is only
		// pending: until a checkpoint records the relocations, a crash
		// recovers from a checkpoint whose pointers still reach into
		// it, so it must not be rewritten. Its inode-map blocks, which
		// that checkpoint rewrites, stay live until then.
		fs.usage[vs.seg].State = segPending
		fs.pendingClean++
		read := int64(fs.sb.SegmentSize)
		copied := int64(vs.copied) * int64(fs.cfg.BlockSize)
		fs.stats.SegmentsCleaned++
		fs.stats.CleanerBlocksExamined += int64(vs.examined)
		fs.stats.CleanerLiveCopied += int64(vs.copied)
		fs.stats.CleanerBytesReclaimed += read - copied
		if fs.cfg.Trace.Enabled() {
			// Measured byte counts, so the recorder's aggregate write
			// cost is exactly the Stats-derived value.
			fs.cfg.Trace.Clean(obs.CleanRecord{
				Time:           fs.clock.Now(),
				Seg:            vs.seg,
				Utilization:    vs.util,
				BytesRead:      read,
				BytesCopied:    copied,
				BytesReclaimed: read - copied,
			})
		}
	}
	return nil
}

// reviveSegment reads one victim segment and lists its live blocks for
// the pass's flush, each with the victim's data age: the segment writer
// credits the relocated copy at its destination with that age — not the
// copy time — and routes it to the cold head when segregation is on.
// Without the carry, relocated cold data is stamped "just written" and
// cost-benefit stops ever re-selecting the segments it lands in.
//
// The walk reads the victim as roll-forward reads the tail: every unit
// whole, summary and payload checked by readUnit. A sealed segment's units
// run back to back from block 0 until no unit fits (DESIGN.md "Read what
// you take"), so any verdict before that — no unit, a damaged summary, a
// unit that does not fit, a payload that does not match — fails the pass,
// naming segment and unit, and the victim stays dirty: nothing at or past
// the damage is dropped, and nothing damaged is copied under a fresh
// checksum. Returns the live and examined block counts.
func (fs *FS) reviveSegment(seg int) (copied, examined int, err error) {
	srcAge := fs.usage[seg].Age
	// Phase 1: one large sequential read of the whole segment.
	if fs.cl.victim == nil {
		segSize := int(fs.sb.SegmentSize)
		mem := make([]byte, (1+relocationSegments)*segSize)
		fs.cl.victim, fs.cl.staging = mem[:segSize:segSize], mem[segSize:segSize]
	}
	raw := fs.cl.victim
	cache.Poison(raw)
	fs.cpu.Charge(sim.CostDiskOpSetup)
	if err := fs.d.ReadSectors(fs.segFirstSector(seg), raw, disk.CauseCleanerRead, "cleaner: segment read"); err != nil {
		return copied, examined, err
	}

	bs, perSeg := fs.cfg.BlockSize, fs.cfg.blocksPerSegment()
	var u logUnit
	for blk := 0; maxUnitBlocks(perSeg-blk, bs) > 0; blk = u.end {
		fail := func(err error) error {
			return fmt.Errorf("lfs: cleaner: segment %d, unit at block %d: %w", seg, blk, err)
		}
		if u, err = readUnit(raw, blk, bs, fs.cl.refs[:0]); err != nil {
			return copied, examined, fail(err)
		}
		fs.cl.refs = u.refs
		dataStart := blk + u.SumBlocks
		for j, ref := range u.refs {
			examined++
			fs.cpu.Charge(sim.CostCleanPerBlock)
			addr := layout.DiskAddr(fs.blockSector(seg, dataStart+j))
			live, err := fs.reviveBlock(ref, addr, u.data[j*bs:(j+1)*bs], srcAge)
			if err != nil {
				return copied, examined, fail(err)
			}
			if live {
				copied++
			}
		}
		// A commit's inline records are not a block: they are not
		// counted, but a live one is rewritten all the same.
		sumBlk, first := u.inlineAt(blk, bs)
		if _, err := fs.reviveRecords(u.inline, layout.DiskAddr(fs.blockSector(seg, sumBlk)), first, srcAge); err != nil {
			return copied, examined, fail(err)
		}
	}
	return copied, examined, nil
}

// reviveBlock decides whether a logged block is live (§4.3.3) and, if
// so, queues it for the pass's segment write. Returns whether the block
// was live.
func (fs *FS) reviveBlock(ref blockRef, addr layout.DiskAddr, data []byte, srcAge sim.Time) (bool, error) {
	switch ref.Kind {
	case kindData, kindIndirect:
		e := fs.imap.peek(ref.Ino)
		// Step 1: the version check catches deleted and truncated
		// files without touching the inode.
		if !e.Allocated || e.Version != ref.Version {
			return false, nil
		}
		// Step 2: the inode walk confirms the block is still part
		// of the file at this address.
		in, err := fs.getInode(ref.Ino)
		if err != nil {
			return false, err
		}
		key, cur := dataKey(ref.Ino, ref.ID), layout.NilAddr
		if ref.Kind == kindData {
			cur, err = fs.blockAddrOf(in, ref.ID)
		} else {
			key = indKey(ref.Ino, ref.ID)
			cur, err = fs.indirectAddrOf(in, ref.ID)
		}
		if err != nil || cur != addr {
			return false, err
		}
		// An already-dirty cached copy holds newer application data that
		// belongs in the hot stream (and would be written anyway): it is
		// not listed. A data block nobody has cached stays out of the
		// cache — victim → staging → cold head — so a pass evicts nothing
		// the application cached. An indirect block has to be cached, the
		// same flush's pointer updates are made in it; a clean cached copy
		// of either kind is re-dirtied in place.
		b := fs.bc.Peek(key)
		if b != nil && b.Dirty() {
			return true, nil
		}
		m := logBlock{key: key, age: srcAge}
		if b == nil && ref.Kind == kindData {
			n := len(fs.cl.staging)
			fs.cl.staging = append(fs.cl.staging, data...)
			m.data = fs.cl.staging[n:]
		} else {
			if b == nil {
				b = fs.bc.AddFrom(key, data)
			}
			fs.bc.MarkDirty(b, fs.clock.Now())
			m.data, m.b = b.Data, b
		}
		fs.cl.moves = append(fs.cl.moves, m)
		return true, nil

	case kindInodes:
		return fs.reviveRecords(data, addr, 0, srcAge)

	case kindImap:
		idx := int(ref.ID)
		if idx < 0 || idx >= fs.imap.blockCount() || fs.imap.blockAddrs[idx] != addr {
			return false, nil
		}
		// Re-dirty the imap block; it is rewritten at the
		// checkpoint that ends this cleaner run.
		fs.imap.dirtyBlock[idx] = true
		return true, nil
	}
	return false, fmt.Errorf("lfs: unknown block kind %d in summary", ref.Kind)
}

// reviveRecords queues for the pass's segment write each live inode whose
// record recs holds: the record slots from first on of the block at
// sector block, an inode block or a summary block's inline records, of a
// victim whose data is of age srcAge. Returns whether any was live.
func (fs *FS) reviveRecords(recs []byte, block layout.DiskAddr, first int, srcAge sim.Time) (bool, error) {
	// An inode is live when the map still points at its slot. Ask the
	// map first: it costs an index, where decoding and checksumming
	// every record of every victim inode block costs more than the
	// copies do.
	live := false
	for i := 0; i+layout.InodeSize <= len(recs); i += layout.InodeSize {
		ino := layout.Ino(binary.LittleEndian.Uint32(recs[i:]))
		if ino < 1 || ino > fs.imap.maxIno() {
			continue
		}
		e := fs.imap.peek(ino)
		if addr, slot := slotAddr(block, first+i/layout.InodeSize); !e.Allocated || e.Addr != addr || e.Slot != slot {
			continue
		}
		// Live: queue a rewrite from the in-core copy, fetching (and so
		// verifying) the record when there is none. A current record
		// that cannot be read back must fail the pass — the victim then
		// stays unreclaimed — since skipping it would reclaim the only
		// copy of the inode. On failure, report the liveness found so
		// far: earlier slots were already marked dirty, and discarding
		// them would leave the caller's copy accounting inconsistent.
		if _, err := fs.getInode(ino); err != nil {
			return live, fmt.Errorf("live inode %d at %v slot %d: %w", ino, e.Addr, e.Slot, err)
		}
		if !fs.inodes.isDirty(ino) {
			fs.passDirtied(ino, srcAge)
		}
		fs.markInodeDirty(ino)
		live = true
	}
	return live, nil
}
