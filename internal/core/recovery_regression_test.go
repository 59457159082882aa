package core

// Regression tests for the recovery and cleaner-accounting bugs found
// by code review and the crash-point harness (internal/fstest).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

// TestDecodeCheckpointTruncated: header fields used to be read before
// any length check, so a checkpoint region shorter than the header
// (a truncated image fed to lfsck/lfsdump) panicked instead of
// returning an error.
func TestDecodeCheckpointTruncated(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 20, ckptHeaderSize - 1} {
		if _, err := decodeCheckpoint(make([]byte, n)); err == nil {
			t.Errorf("decodeCheckpoint accepted a %d-byte region", n)
		}
	}
}

// TestDecodeSuperblockTruncated: same guard for the superblock
// decoder, which read the magic and checksum words unconditionally.
func TestDecodeSuperblockTruncated(t *testing.T) {
	for _, n := range []int{0, 3, 59, 63} {
		if _, err := decodeSuperblock(make([]byte, n)); err == nil {
			t.Errorf("decodeSuperblock accepted a %d-byte buffer", n)
		}
	}
}

// fragmentedFS builds a volume with several partially-live dirty
// segments: many small files, every other one removed, all flushed.
func fragmentedFS(t *testing.T) *FS {
	t.Helper()
	cfg := smallConfig()
	cfg.SegmentSize = 64 << 10
	cfg.CacheBlocks = 64
	cfg.MaxInodes = 512
	fs := newTestFS(t, 8<<20, cfg)
	for i := 0; i < 40; i++ {
		p := pathOf(i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, bytes.Repeat([]byte{byte(i)}, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i += 2 {
		if err := fs.Remove(pathOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	return fs
}

func pathOf(i int) string {
	return "/f" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestCleanerBytesReclaimedNet pins the cleaner's net-space
// accounting: the run total must be exactly segments reclaimed minus
// the space the relocated live blocks consume at the head. The old code
// clamped each victim separately. No victim nets less than a block:
// copied counts only the victim's own blocks, never its summary.
func TestCleanerBytesReclaimedNet(t *testing.T) {
	fs := fragmentedFS(t)
	before := fs.stats.CleanerBytesReclaimed
	res, err := fs.CleanUntil(fs.CleanSegments() + 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsCleaned == 0 {
		t.Fatal("cleaner found nothing to clean; test setup is wrong")
	}
	want := int64(res.SegmentsCleaned)*int64(fs.sb.SegmentSize) -
		int64(res.LiveCopied)*int64(fs.cfg.BlockSize)
	if res.BytesReclaimed != want {
		t.Errorf("BytesReclaimed = %d, want net %d", res.BytesReclaimed, want)
	}
	if got := fs.stats.CleanerBytesReclaimed - before; got != res.BytesReclaimed {
		t.Errorf("stats accumulated %d, result says %d", got, res.BytesReclaimed)
	}
}

// TestReclaimedSegmentPendingUntilCheckpoint: a reclaimed segment must
// not become reusable before a checkpoint records the relocation of
// its live blocks. The old code marked victims clean immediately, so
// later writes in the same cleaner run could overwrite blocks that
// the only durable checkpoint still referenced — a crash then
// resurrected garbage (found by the crash-point sweep as corrupted
// root inodes from one crash point onward).
func TestReclaimedSegmentPendingUntilCheckpoint(t *testing.T) {
	fs := fragmentedFS(t)
	victim, ok := fs.selectVictim(nil)
	if !ok {
		t.Fatal("no victim on a fragmented volume")
	}
	cleanBefore := fs.cleanCount
	coldOpenBefore := fs.heads[classCold].open
	fs.cleaning = true
	err := fs.cleanBatch([]int{victim})
	fs.cleaning = false
	if err != nil {
		t.Fatal(err)
	}
	// Relocating the victim's live blocks may lazily open the cold
	// head, which legitimately activates (consumes) one clean segment;
	// the victim itself must still not count as clean yet.
	opened := 0
	if !coldOpenBefore && fs.heads[classCold].open {
		opened = 1
	}
	if st := fs.usage[victim].State; st != segPending {
		t.Fatalf("victim state = %d after cleaning, want segPending (%d)", st, segPending)
	}
	if fs.pendingClean != 1 {
		t.Fatalf("pendingClean = %d, want 1", fs.pendingClean)
	}
	if fs.cleanCount != cleanBefore-opened {
		t.Fatalf("cleanCount moved from %d to %d before the checkpoint (cold head opened: %d)",
			cleanBefore, fs.cleanCount, opened)
	}
	if err := fs.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := fs.usage[victim].State; st != segClean {
		t.Fatalf("victim state = %d after checkpoint, want segClean", st)
	}
	if fs.pendingClean != 0 {
		t.Fatalf("pendingClean = %d after checkpoint, want 0", fs.pendingClean)
	}
	if fs.cleanCount != cleanBefore-opened+1 {
		t.Fatalf("cleanCount = %d after checkpoint, want %d", fs.cleanCount, cleanBefore-opened+1)
	}
}

// TestBooksBalanceMidActivation: the usage array is exact between a
// pass and the checkpoint that ends its activation too. A reclaimed
// victim's inode-map blocks stay live until that checkpoint writes the
// map, as every other moved block stays live until its new copy lands.
// The cleaner used to zero whatever a victim still held once the pass
// landed, so Check() found the map's blocks in a segment said to hold
// nothing, and the total short by as much.
func TestBooksBalanceMidActivation(t *testing.T) {
	fs := fragmentedFS(t)
	victim := -1
	for _, a := range fs.imap.blockAddrs {
		if seg := fs.segOf(a); seg >= 0 && fs.usage[seg].State == segDirty {
			victim = seg
			break
		}
	}
	if victim < 0 {
		t.Fatal("no dirty segment holds an inode-map block; test setup is wrong")
	}
	_, err := cleanVictims(fs, victim)
	must(t, err)
	balanced := func(when string) {
		t.Helper()
		rep, err := fs.Check()
		must(t, err)
		if !rep.Ok() {
			t.Fatalf("%s: problems %q", when, rep.Problems)
		}
	}
	balanced("before the checkpoint")
	if fs.usage[victim].State != segPending || fs.usage[victim].Live == 0 {
		t.Fatalf("victim %d after the pass: state %d, %d live bytes; want pending, its map blocks live",
			victim, fs.usage[victim].State, fs.usage[victim].Live)
	}
	must(t, fs.Checkpoint())
	if fs.usage[victim].State != segClean || fs.usage[victim].Live != 0 {
		t.Fatalf("victim %d after the checkpoint: state %d, %d live bytes; want clean and empty",
			victim, fs.usage[victim].State, fs.usage[victim].Live)
	}
	balanced("after the checkpoint")
}

// TestReviveBlockInodeErrorKeepsLiveness: when reviving an inode block
// fails partway (getInode error on a later slot), earlier slots were
// already marked dirty, so the liveness found so far must be reported
// with the error instead of discarded — otherwise the caller's copy
// accounting no longer matches the dirtied cache.
func TestReviveBlockInodeErrorKeepsLiveness(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	if err := fs.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fiA, err := fs.Stat("/a")
	if err != nil {
		t.Fatal(err)
	}
	fiB, err := fs.Stat("/b")
	if err != nil {
		t.Fatal(err)
	}
	eA, eB := fs.imap.get(fiA.Ino), fs.imap.get(fiB.Ino)
	blockOf := func(addr layout.DiskAddr) int64 {
		seg := fs.segOf(addr)
		spb := fs.cfg.sectorsPerBlock()
		rel := int64(addr) - fs.segFirstSector(seg)
		return fs.segFirstSector(seg) + rel/spb*spb
	}
	blockStart := blockOf(eA.Addr)
	if blockOf(eB.Addr) != blockStart {
		t.Fatal("inodes landed in different blocks; test setup is wrong")
	}
	// /a must occupy an earlier slot than /b so the error hits after
	// liveness was found.
	if eA.Addr > eB.Addr || (eA.Addr == eB.Addr && eA.Slot >= eB.Slot) {
		eA, eB = eB, eA
	}
	// Snapshot the intact block — the cleaner reads the victim
	// segment before examining it.
	blk := make([]byte, fs.cfg.BlockSize)
	//lfslint:allow iocause raw-device snapshot below the FS; attribution is irrelevant here
	if err := fs.d.ReadSectors(blockStart, blk, disk.CauseOther, "test"); err != nil {
		t.Fatal(err)
	}
	// Zero /b's slot on the medium and evict both inodes so the
	// revive path must fetch them from disk; /b's fetch then fails.
	off := int64(eB.Addr)*512 + int64(eB.Slot)*int64(layout.InodeSize)
	if err := fs.d.Store().WriteAt(make([]byte, layout.InodeSize), off); err != nil {
		t.Fatal(err)
	}
	fs.inodes.drop(fiA.Ino)
	fs.inodes.drop(fiB.Ino)

	live, err := fs.reviveBlock(blockRef{Kind: kindInodes}, layout.DiskAddr(blockStart), blk, fs.clock.Now())
	if err == nil {
		t.Fatal("reviveBlock succeeded despite the corrupted slot")
	}
	if !live {
		t.Fatal("reviveBlock dropped the liveness found before the error")
	}
}

// TestCleanerKeepsInodeWithCorruptRecord: the cleaner used to decode
// every inode record of a victim block before asking the inode map
// about it, and skipped a record that failed its checksum as if it were
// a stale copy. When that record was the current one, the victim was
// reclaimed with the only copy of the inode in it: a media fault turned
// into a lost file at the next remount. The map is asked first now, and
// every unit of a victim is held to the data checksum in its summary:
// the flipped bit fails the pass with an error naming segment and unit,
// whether or not the inode is in core, and the victim stays dirty. (A
// record that goes bad between the segment read and the inode fetch
// still fails the pass by inode number:
// TestReviveBlockInodeErrorKeepsLiveness.) The unit checksum also sees
// what the map question cannot, a flip inside the record's inode-number
// field, which makes the slot read as another inode's stale copy;
// TestCleanerFailsOnFlippedDataBit has it in a unit with nothing else
// live.
func TestCleanerKeepsInodeWithCorruptRecord(t *testing.T) {
	for _, tc := range []struct {
		inCore bool
		field  int64 // byte of the record that takes the flip
	}{{true, 8}, {false, 8}, {false, 0}} {
		fs := fragmentedFS(t)
		path := pathOf(1)
		fi, err := fs.Stat(path)
		must(t, err)
		e := *fs.imap.get(fi.Ino)
		victim := fs.segOf(e.Addr)
		// Push the log head past the inode's segment so it can be cleaned.
		must(t, fs.Create("/filler"))
		for i := 0; fs.usage[victim].State != segDirty; i++ {
			must(t, fs.Write("/filler", int64(i)*8192, make([]byte, 8192)))
			must(t, fs.Sync())
		}
		if cur := fs.imap.get(fi.Ino); cur.Addr != e.Addr || cur.Slot != e.Slot {
			t.Fatal("the inode moved while the head advanced; test setup is wrong")
		}
		if !tc.inCore {
			fs.inodes.drop(fi.Ino)
		}
		// One bit of the current record — its size, or its inode number —
		// on the medium.
		off := int64(e.Addr)*512 + int64(e.Slot)*layout.InodeSize + tc.field
		flip := func() {
			b := make([]byte, 1)
			must(t, fs.d.Store().ReadAt(b, off))
			b[0] ^= 0x10
			must(t, fs.d.Store().WriteAt(b, off))
		}
		flip()

		fs.cleaning = true
		err = fs.cleanBatch([]int{victim})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("segment %d, unit at block", victim)) {
			t.Fatalf("%+v: clean of a victim that reads back damaged: %v, want an error naming segment %d and the unit", tc, err, victim)
		}
		if st := fs.usage[victim].State; st != segDirty {
			t.Fatalf("%+v: victim state %d after the failed clean, want still dirty", tc, st)
		}
		flip() // the fault clears (or the sector is repaired): nothing was lost
		err = fs.cleanBatch([]int{victim})
		fs.cleaning = false
		must(t, err)
		if cur := fs.imap.get(fi.Ino); fs.segOf(cur.Addr) == victim {
			t.Fatalf("%+v: the inode was not relocated out of the victim on the retry", tc)
		}
		must(t, fs.Checkpoint())
		fs.DropCaches() // the next Stat reads the relocated record
		after, err := fs.Stat(path)
		if err != nil || after.Ino != fi.Ino || after.Size != fi.Size {
			t.Fatalf("%+v: Stat after the clean = %+v, %v; want %+v", tc, after, err, fi)
		}
	}
}

// forgeUnitAtHead crashes fs and writes, where roll-forward will look
// for the next hot unit, one that carries the expected serial and intact
// record, data and summary checksums around the given inode records,
// stamped ts. It returns the device for the remount.
func forgeUnitAtHead(t *testing.T, fs *FS, ts sim.Time, recs ...layout.Inode) *disk.Disk {
	t.Helper()
	bs := fs.cfg.BlockSize
	h := &fs.heads[classHot]
	unit := make([]byte, 2*bs)
	for i := range recs {
		recs[i].Encode(unit[bs+i*layout.InodeSize:])
	}
	hdr := summaryHeader{
		Serial:    fs.writeSerial,
		NBlocks:   1,
		SumBlocks: 1,
		Timestamp: ts,
		DataCRC:   layout.DataChecksum(unit[bs:]),
	}
	encodeSummary(hdr, []blockRef{{Kind: kindInodes}}, unit[:bs])
	fs.Crash()
	must(t, fs.d.Store().WriteAt(unit, fs.blockSector(h.seg, h.blk)*disk.SectorSize))
	return fs.d
}

// TestCleanerRefusesUnitOutsideItsSegment: once a summary's checksum
// held, the cleaner's walk took its lengths on trust. A unit claiming a
// thousand summary blocks ran the data slice past the victim buffer (a
// panic), and one claiming none sent the walk round the same block for
// ever (until go test's -timeout). Roll-forward and Dump already stopped
// at such a unit; the cleaner now fails the pass naming the segment and
// the unit, so its victim stays dirty.
func TestCleanerRefusesUnitOutsideItsSegment(t *testing.T) {
	for _, tc := range []struct{ sumBlocks, nBlocks int }{{1000, 3}, {0, 0}} {
		fs := newTestFS(t, 16<<20, smallConfig())
		must(t, fs.Create("/f"))
		must(t, fs.Write("/f", 0, make([]byte, 8192)))
		must(t, fs.Sync())
		h := fs.heads[classHot]
		bs := fs.cfg.BlockSize
		sum := make([]byte, bs)
		encodeSummary(summaryHeader{
			Serial:    fs.writeSerial,
			NBlocks:   tc.nBlocks,
			SumBlocks: tc.sumBlocks,
			Timestamp: fs.clock.Now(),
		}, make([]blockRef, tc.nBlocks), sum)
		must(t, fs.d.Store().WriteAt(sum, fs.blockSector(h.seg, h.blk)*disk.SectorSize))

		_, _, err := fs.reviveSegment(h.seg)
		want := fmt.Sprintf("segment %d, unit at block %d", h.seg, h.blk)
		if err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, errSummaryBounds) {
			t.Fatalf("%+v: walk over the forged unit: %v, want an error naming %q", tc, err, want)
		}
	}
}

// TestCleanerFailsAtDamagedSummary: the cleaner used to take a summary
// that failed its checksum for the end of a victim's used region and
// reclaim the segment, dropping every live block and inode record at or
// past it without an error. A sealed segment's units reach its end, so
// the damaged summary is a fault: here a group commit leaves three files'
// only records inline in its summary block, one bit flips in that block's
// last sector, and the pass fails naming segment and unit while the
// victim stays dirty. Once the sector reads back as written, a remount
// finds all three files and a clean volume.
func TestCleanerFailsAtDamagedSummary(t *testing.T) {
	fs, paths, u := groupCommitOfThree(t)
	must(t, fs.Create("/filler"))
	for i := 0; fs.usage[u.seg].State != segDirty; i++ {
		must(t, fs.Write("/filler", int64(i)*8192, make([]byte, 8192)))
		must(t, fs.Sync())
	}
	spb := int64(fs.cfg.sectorsPerBlock())
	last := fs.blockSector(u.seg, u.blk) + spb - 1
	must(t, fs.d.FlipBits(last, 500, 0x04))

	_, err := cleanVictims(fs, u.seg)
	want := fmt.Sprintf("segment %d, unit at block %d", u.seg, u.blk)
	if err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, errSummaryChecksum) {
		t.Fatalf("clean of a victim with a damaged summary: %v, want a summary checksum error naming %q", err, want)
	}
	if st := fs.usage[u.seg].State; st != segDirty {
		t.Fatalf("victim state %d after the failed clean, want still dirty", st)
	}

	must(t, fs.d.FlipBits(last, 500, 0x04)) // the sector is repaired
	must(t, fs.Unmount())
	fs, err = Mount(fs.d, fs.cfg)
	must(t, err)
	for _, p := range paths {
		if fi, err := fs.Stat(p); err != nil || fi.Size != int64(fs.cfg.BlockSize) {
			t.Fatalf("%s after the remount: %+v, %v; want %d bytes", p, fi, err, fs.cfg.BlockSize)
		}
	}
	readsBack(t, fs, paths)
}

// TestCheckpointThatDoesNotFitIsInvalid: a region whose checksum holds
// but whose usage table has one entry on a volume of many segments is
// invalid as a whole, like a torn one. Dump used to index past the table
// (a panic), DumpImap printed the region, and Mount refused the volume
// although the other region was intact.
func TestCheckpointThatDoesNotFitIsInvalid(t *testing.T) {
	cfg := smallConfig()
	fs := newTestFS(t, 16<<20, cfg)
	must(t, fs.Create("/a"))
	must(t, fs.Checkpoint())
	must(t, fs.Create("/b"))
	must(t, fs.Checkpoint())
	older, newest := fs.ckptSerial-1, fs.ckptSerial
	sector := int64(fs.sb.Ckpt0Sector)
	if newest%2 == 1 {
		sector = int64(fs.sb.Ckpt1Sector)
	}
	fs.Crash()
	region := make([]byte, fs.sb.CkptBytes)
	must(t, fs.d.Store().ReadAt(region, sector*disk.SectorSize))
	st, err := decodeCheckpoint(region)
	must(t, err)
	st.Usage = st.Usage[:1]
	encodeCheckpoint(st, region)
	must(t, fs.d.Store().WriteAt(region, sector*disk.SectorSize))

	var out strings.Builder
	must(t, Dump(&out, fs.d, true))
	if want := fmt.Sprintf("checkpoint %d: invalid (lfs: checkpoint geometry mismatch)", newest%2); !strings.Contains(out.String(), want) {
		t.Fatalf("dump does not say %q:\n%s", want, out.String())
	}
	out.Reset()
	must(t, DumpImap(&out, fs.d))
	if want := fmt.Sprintf("(as of checkpoint serial %d)", older); !strings.Contains(out.String(), want) {
		t.Fatalf("imap dump is not of the intact region, want %q:\n%s", want, out.String())
	}
	fs, err = Mount(fs.d, cfg)
	must(t, err)
	for _, path := range []string{"/a", "/b"} {
		if _, err := fs.Stat(path); err != nil {
			t.Fatalf("after recovering from the intact region: %v", err)
		}
	}
	rep, err := fs.Check()
	if err != nil || !rep.Ok() {
		t.Fatalf("check after recovering from the intact region: %v, %v", err, rep.Problems)
	}
}

// TestRollForwardRejectsStaleEpochUnit: a unit whose serial matches
// the checkpoint's expectation but whose timestamp predates the
// checkpoint is a leftover from an earlier log epoch (or a forgery)
// and must not be replayed. Without the timestamp filter the crafted
// unit below redirects a live file's inode to garbage.
func TestRollForwardRejectsStaleEpochUnit(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	content := bytes.Repeat([]byte{0xAB}, 4096)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, content); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	// Expected serial, intact checksums, but a timestamp of zero —
	// before the checkpoint was taken. Its payload is an inode block
	// that would redirect /f to an empty inode if replayed.
	d := forgeUnitAtHead(t, fs, 0, layout.NewInode(fi.Ino, layout.ModeFile|0o644))

	fs2, err := Mount(d, fs.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := fs2.Stats().RollForwardUnits; n != 0 {
		t.Fatalf("roll-forward replayed %d stale unit(s)", n)
	}
	got := make([]byte, len(content))
	if _, err := fs2.Read("/f", 0, got); err != nil {
		t.Fatalf("reading /f after recovery: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("/f lost its checkpointed content")
	}
}

// TestRollForwardSkipsRecordOutsideTheMap: roll-forward indexed the
// inode map with whatever number a replayed record carried. A unit whose
// three checksums verify but whose records claim inode 0 and one past
// MaxInodes panicked Mount (index out of range; block -1 for inode 0).
// Such records name no file: they are skipped, the honest record beside
// them is applied, and the volume mounts and checks clean.
func TestRollForwardSkipsRecordOutsideTheMap(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	must(t, fs.Create("/f"))
	must(t, fs.Checkpoint())
	fi, err := fs.Stat("/f")
	must(t, err)
	honest := *fs.inodes.get(fi.Ino)
	honest.Mtime = 77
	resident := fs.imap.highIno()
	d := forgeUnitAtHead(t, fs, fs.clock.Now(),
		layout.NewInode(0, layout.ModeFile|0o644),
		layout.NewInode(layout.Ino(fs.cfg.MaxInodes)+1, layout.ModeFile|0o644),
		honest)

	fs2, err := Mount(d, fs.cfg)
	must(t, err)
	if n := fs2.Stats().RollForwardUnits; n != 1 {
		t.Fatalf("roll-forward replayed %d units, want the forged one", n)
	}
	if got, err := fs2.Stat("/f"); err != nil || got.Mtime != 77 {
		t.Fatalf("the in-range record of the unit was not applied: %+v, %v", got, err)
	}
	if got := fs2.imap.highIno(); got != resident {
		t.Fatalf("out-of-range records grew the map: resident to inode %d, was %d", got, resident)
	}
	rep, err := fs2.Check()
	if err != nil || !rep.Ok() {
		t.Fatalf("check after replay: %v, %+v", err, rep)
	}
}

// TestRollForwardFreesNothingOnADamagedDirectory: roll-forward frees
// what the directory blocks it replays no longer name, so a directory
// record that points at a block that does not parse must not read as a
// directory emptied. A forged unit gives the root such a record (the
// block is /a's data); the mount succeeds, frees nothing, and Check
// reports the damaged directory.
func TestRollForwardFreesNothingOnADamagedDirectory(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	for _, p := range []string{"/a", "/b"} {
		must(t, fs.Create(p))
		must(t, fs.Write(p, 0, bytes.Repeat([]byte{0x5A}, 4096)))
	}
	must(t, fs.Checkpoint())
	a, err := fs.Stat("/a")
	must(t, err)
	ain, err := fs.getInode(a.Ino)
	must(t, err)
	root := *fs.inodes.get(layout.RootIno)
	root.Direct[0], err = fs.blockAddrOf(ain, 0)
	must(t, err)
	allocated := fs.imap.Allocated()
	d := forgeUnitAtHead(t, fs, fs.clock.Now(), root)

	fs2, err := Mount(d, fs.cfg)
	must(t, err)
	if n := fs2.Stats().RollForwardUnits; n != 1 {
		t.Fatalf("roll-forward replayed %d units, want the forged one", n)
	}
	if got := fs2.imap.Allocated(); got != allocated {
		t.Fatalf("roll-forward freed %d inodes of a damaged directory", allocated-got)
	}
	rep, err := fs2.Check()
	must(t, err)
	if !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.HasPrefix(p, "inode 1: listing") }) {
		t.Fatalf("check did not report the damaged root: %q", rep.Problems)
	}
}

// TestRollForwardFreesAFileNoEntryReaches: FsyncFile logs a new file's
// data and inode but not its directory's entry. After a crash the log
// holds the file and no name for it, so roll-forward frees it.
func TestRollForwardFreesAFileNoEntryReaches(t *testing.T) {
	cfg := smallConfig()
	fs := newTestFS(t, 16<<20, cfg)
	must(t, fs.Create("/a"))
	must(t, fs.Checkpoint())
	must(t, fs.Create("/n"))
	must(t, fs.Write("/n", 0, bytes.Repeat([]byte{0x5A}, 8192)))
	must(t, fs.FsyncFile("/n"))
	d := fs.d
	fs.Crash()
	fs, err := Mount(d, cfg)
	must(t, err)
	if fs.stats.RollForwardUnits == 0 {
		t.Fatal("the mount replayed nothing; the test wants the fsync's unit")
	}
	if rep := checkBooks(t, fs); rep.Files != 1 || fs.imap.Allocated() != 2 {
		t.Fatalf("after recovery %d files reached, %d inodes allocated; want /a and the root", rep.Files, fs.imap.Allocated())
	}
}

// TestRecoveredUsageMatchesRecount: roll-forward leaves the books the
// writer would have left. Each input writes files, checkpoints, changes
// them, syncs and cuts the power; after the mount replays the tail, each
// segment's live bytes and their total equal the recount, and Check
// (which recounts too) is clean. What the tail unlinked is gone, its
// inode freed, and what it kept or made survives: every allocated inode
// is one Check reached.
func TestRecoveredUsageMatchesRecount(t *testing.T) {
	const files = 200
	block := bytes.Repeat([]byte{0x5A}, 8192)
	small := func(t *testing.T, fs *FS) {
		for i := 0; i < files; i++ {
			must(t, fs.Create(fmt.Sprintf("/f%03d", i)))
			must(t, fs.Write(fmt.Sprintf("/f%03d", i), 0, block))
		}
	}
	overwrite := func(t *testing.T, fs *FS) {
		for i := 0; i < files; i += 2 {
			must(t, fs.Write(fmt.Sprintf("/f%03d", i), 0, block))
		}
	}
	remove := func(t *testing.T, fs *FS) {
		for i := 1; i < files; i += 4 {
			must(t, fs.Remove(fmt.Sprintf("/f%03d", i)))
		}
	}
	file := func(t *testing.T, fs *FS, path string) {
		must(t, fs.Create(path))
		must(t, fs.Write(path, 0, block))
	}
	linked := func(t *testing.T, fs *FS) {
		file(t, fs, "/a")
		must(t, fs.Link("/a", "/b"))
	}
	for _, tc := range []struct {
		name          string
		setup, tail   func(t *testing.T, fs *FS)
		survive, gone []string
	}{
		{"overwrite and remove", small, func(t *testing.T, fs *FS) {
			overwrite(t, fs)
			remove(t, fs)
		}, []string{"/f000", "/f002"}, []string{"/f001", "/f197"}},
		{"overwrite", small, overwrite, nil, nil},
		{"truncate", small, func(t *testing.T, fs *FS) {
			for i := 0; i < files; i += 4 {
				must(t, fs.Truncate(fmt.Sprintf("/f%03d", i), 100))
			}
		}, nil, nil},
		{"remove then create", small, func(t *testing.T, fs *FS) {
			remove(t, fs)
			for i := 0; i < files/4; i++ {
				must(t, fs.Create(fmt.Sprintf("/g%03d", i)))
				must(t, fs.Write(fmt.Sprintf("/g%03d", i), 0, block[:4096]))
			}
		}, []string{"/g000", "/g049"}, []string{"/f001"}},
		{"large file", func(t *testing.T, fs *FS) {
			must(t, fs.Create("/big"))
			for off := int64(0); off < 8<<20; off += int64(len(block)) {
				must(t, fs.Write("/big", off, block))
			}
		}, func(t *testing.T, fs *FS) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 64; i++ {
				must(t, fs.Write("/big", int64(rng.Intn(1024))*8192, block))
			}
		}, []string{"/big"}, nil},
		{"unlink one of two links", linked, func(t *testing.T, fs *FS) {
			must(t, fs.Remove("/b"))
		}, []string{"/a"}, []string{"/b"}},
		{"unlink both links, one sync", linked, func(t *testing.T, fs *FS) {
			must(t, fs.Remove("/a"))
			must(t, fs.Remove("/b"))
		}, nil, []string{"/a", "/b"}},
		{"unlink both links, two syncs", linked, func(t *testing.T, fs *FS) {
			must(t, fs.Remove("/a"))
			must(t, fs.Sync())
			must(t, fs.Remove("/b"))
		}, nil, []string{"/a", "/b"}},
		{"link, then unlink the original", func(t *testing.T, fs *FS) {
			file(t, fs, "/a")
		}, func(t *testing.T, fs *FS) {
			must(t, fs.Link("/a", "/b"))
			must(t, fs.Remove("/a"))
		}, []string{"/b"}, []string{"/a"}},
		{"cross-directory rename", func(t *testing.T, fs *FS) {
			must(t, fs.Mkdir("/d1"))
			must(t, fs.Mkdir("/d2"))
			file(t, fs, "/d1/f")
		}, func(t *testing.T, fs *FS) {
			must(t, fs.Rename("/d1/f", "/d2/f"))
		}, []string{"/d1", "/d2/f"}, []string{"/d1/f"}},
		{"rmdir of a directory emptied in the tail", func(t *testing.T, fs *FS) {
			must(t, fs.Mkdir("/d"))
			file(t, fs, "/d/f")
			file(t, fs, "/d/g")
		}, func(t *testing.T, fs *FS) {
			must(t, fs.Remove("/d/f"))
			must(t, fs.Remove("/d/g"))
			must(t, fs.Remove("/d"))
		}, nil, []string{"/d"}},
		{"rename a directory, then rmdir it", func(t *testing.T, fs *FS) {
			must(t, fs.Mkdir("/d"))
		}, func(t *testing.T, fs *FS) {
			must(t, fs.Rename("/d", "/e"))
			must(t, fs.Sync())
			must(t, fs.Remove("/e"))
		}, nil, []string{"/d", "/e"}},
		{"create then remove within the tail", func(t *testing.T, fs *FS) {
			file(t, fs, "/a")
		}, func(t *testing.T, fs *FS) {
			file(t, fs, "/n")
			must(t, fs.Sync())
			must(t, fs.Remove("/n"))
		}, []string{"/a"}, []string{"/n"}},
		{"remove, reuse the number, remove again", func(t *testing.T, fs *FS) {
			file(t, fs, "/a")
		}, func(t *testing.T, fs *FS) {
			must(t, fs.Remove("/a"))
			file(t, fs, "/b")
			must(t, fs.Sync())
			must(t, fs.Remove("/b"))
		}, nil, []string{"/a", "/b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			fs := newTestFS(t, 32<<20, cfg)
			tc.setup(t, fs)
			must(t, fs.Checkpoint())
			tc.tail(t, fs)
			must(t, fs.Sync())
			d := fs.d
			fs.Crash()
			fs, err := Mount(d, cfg)
			must(t, err)
			if fs.stats.RollForwardUnits == 0 {
				t.Fatal("the mount replayed nothing; the test wants a tail")
			}
			rep := checkBooks(t, fs)
			for _, p := range tc.survive {
				if _, err := fs.Stat(p); err != nil {
					t.Errorf("%s did not survive: %v", p, err)
				}
			}
			for _, p := range tc.gone {
				if _, err := fs.Stat(p); err == nil {
					t.Errorf("%s survived", p)
				}
			}
			if n := rep.Files + rep.Dirs; n != fs.imap.Allocated() {
				t.Errorf("check reached %d inodes, the map holds %d allocated", n, fs.imap.Allocated())
			}
		})
	}
}
