package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"lfs/internal/layout"
)

// Tests of the commit unit: the batches of an fsync or FlushAsync share
// one log unit per head, while every other flush writes a unit per batch.

// unitKinds returns the kind of each entry of u's summary, in order.
func unitKinds(u loggedUnit) []blockKind {
	kinds := make([]blockKind, len(u.refs))
	for i, r := range u.refs {
		kinds[i] = r.Kind
	}
	return kinds
}

// TestFsyncWritesOneUnit: a per-file fsync of a file with an indirect
// block logs its data and its indirect block under one summary, which
// carries its inode inline.
func TestFsyncWritesOneUnit(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	bs := fs.cfg.BlockSize
	must(t, fs.Create("/f"))
	must(t, fs.Sync())
	must(t, fs.Write("/f", 0, make([]byte, bs)))
	must(t, fs.Write("/f", int64(layout.NDirect*bs), make([]byte, bs))) // past the direct pointers
	since := fs.writeSerial
	must(t, fs.FsyncFile("/f"))
	units := writtenSince(t, fs, since)
	if len(units) != 1 {
		t.Fatalf("fsync wrote %d units, want 1", len(units))
	}
	want := []blockKind{kindData, kindData, kindIndirect}
	if got := unitKinds(units[0]); !slices.Equal(got, want) || units[0].Inline != 1 {
		t.Errorf("fsync unit holds %v and %d inline records, want %v and 1", got, units[0].Inline, want)
	}
}

// TestGroupCommitSpillsPastFullSummary: a group commit whose data batch
// fills the summary block it reserved puts its inode blocks in a second
// unit, and the volume recovers from both.
func TestGroupCommitSpillsPastFullSummary(t *testing.T) {
	cfg := smallConfig()
	cfg.GroupCommit = true
	fs := newTestFS(t, 64<<20, cfg)
	bs := fs.cfg.BlockSize
	perSummary := (bs - summaryHeaderSize) / summaryEntrySize
	paths := make([]string, perSummary)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%03d", i)
		must(t, fs.Create(paths[i]))
	}
	must(t, fs.Sync())
	for i, p := range paths {
		must(t, fs.Write(p, 0, bytes.Repeat([]byte{byte(i)}, bs)))
	}
	since := fs.writeSerial
	must(t, fs.FsyncFile(paths[0]))
	units := writtenSince(t, fs, since)
	if len(units) != 2 || units[0].NBlocks != perSummary || units[0].SumBlocks != 1 {
		t.Fatalf("group commit of %d one-block files wrote %d units, want a full one-summary data unit and an inode unit", perSummary, len(units))
	}
	if got := unitKinds(units[1]); slices.ContainsFunc(got, func(k blockKind) bool { return k != kindInodes }) {
		t.Errorf("second unit holds %v, want inode blocks only", got)
	}

	fs.Crash()
	fs2, err := Mount(fs.d, cfg)
	must(t, err)
	rep, err := fs2.Check()
	must(t, err)
	if !rep.Ok() {
		t.Fatalf("recovered volume: %v", rep.Problems)
	}
	buf := make([]byte, bs)
	for i, p := range paths {
		if _, err := fs2.Read(p, 0, buf); err != nil || buf[0] != byte(i) || buf[bs-1] != byte(i) {
			t.Fatalf("recovered %s: %v, first byte %d, want %d", p, err, buf[0], i)
		}
	}
}

// TestSyncWritesUnitPerBatch holds the commit unit's scope: a Sync still
// writes its data and its inodes as separate units. One unit per flush
// waits for lfsperf's frozen phase oracles to give way to
// bench_results.txt (ROADMAP item 7), since it moves Figures 3 and 4.
func TestSyncWritesUnitPerBatch(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	must(t, fs.Create("/f"))
	must(t, fs.Sync())
	must(t, fs.Write("/f", 0, make([]byte, fs.cfg.BlockSize)))
	since := fs.writeSerial
	must(t, fs.Sync())
	units := writtenSince(t, fs, since)
	if len(units) != 2 {
		t.Fatalf("sync wrote %d units, want 2 (data, inodes)", len(units))
	}
	for i, want := range [][]blockKind{{kindData}, {kindInodes}} {
		if got := unitKinds(units[i]); !slices.Equal(got, want) {
			t.Errorf("sync unit %d holds %v, want %v", i, got, want)
		}
	}
}

// groupCommitOfThree makes three files of one block each, durable but for
// their data, and commits them with one group-commit fsync. It returns
// the volume, the files and the one unit the commit wrote.
func groupCommitOfThree(t *testing.T) (*FS, []string, loggedUnit) {
	t.Helper()
	cfg := smallConfig()
	cfg.GroupCommit = true
	cfg.SegmentSize = 64 << 10
	fs := newTestFS(t, 16<<20, cfg)
	bs := fs.cfg.BlockSize
	paths := []string{"/a", "/b", "/c"}
	for _, p := range paths {
		must(t, fs.Create(p))
	}
	must(t, fs.Sync())
	for i, p := range paths {
		must(t, fs.Write(p, 0, bytes.Repeat([]byte{byte(i + 1)}, bs)))
	}
	since, blocks := fs.writeSerial, fs.stats.BlocksWritten
	must(t, fs.FsyncFile(paths[0]))
	if got := fs.stats.BlocksWritten - blocks; got != 4 {
		t.Errorf("a group commit of three one-block files wrote %d blocks, want 4 (3 data, 1 summary)", got)
	}
	units := writtenSince(t, fs, since)
	if len(units) != 1 {
		t.Fatalf("the commit wrote %d units, want 1", len(units))
	}
	u := units[0]
	if got := unitKinds(u); !slices.Equal(got, []blockKind{kindData, kindData, kindData}) || u.Inline != 3 {
		t.Fatalf("the commit's unit holds %v and %d inline records, want three data blocks and 3", got, u.Inline)
	}
	sum := layout.DiskAddr(fs.blockSector(u.seg, u.blk))
	for _, p := range paths {
		in, err := fs.LookupLocked(p)
		must(t, err)
		if e := fs.imap.peek(in.Ino); e.Addr < sum || e.Addr >= sum+layout.DiskAddr(bs/512) {
			t.Fatalf("%s: inode at %v, want in the summary block at %v", p, e.Addr, sum)
		}
	}
	return fs, paths, u
}

// readsBack holds each file to its one block of i+1 bytes, and the volume
// to a clean check.
func readsBack(t *testing.T, fs *FS, paths []string) {
	t.Helper()
	buf := make([]byte, fs.cfg.BlockSize)
	for i, p := range paths {
		if n, err := fs.Read(p, 0, buf); err != nil || n != len(buf) || buf[0] != byte(i+1) || buf[n-1] != byte(i+1) {
			t.Fatalf("%s: read %d bytes, %v, first byte %d; want %d bytes of %d", p, n, err, buf[0], len(buf), i+1)
		}
	}
	rep, err := fs.Check()
	must(t, err)
	if !rep.Ok() {
		t.Fatalf("check: %v", rep.Problems)
	}
}

// TestGroupCommitInlinesInodes: a group commit of three files writes
// their data and one summary block, which carries their inodes (and Dump
// says so); a crash right after it recovers all three from that block.
func TestGroupCommitInlinesInodes(t *testing.T) {
	fs, paths, u := groupCommitOfThree(t)
	var dump strings.Builder
	must(t, Dump(&dump, fs.d, true))
	if want := fmt.Sprintf("serial %6d,   3 blocks (3 data, 0 indirect, 0 inodes, 0 imap), t=%v, 3 inline inodes\n", u.Serial, u.Timestamp); !strings.Contains(dump.String(), want) {
		t.Errorf("dump lacks %q:\n%s", want, dump.String())
	}
	entries := make([]imapEntry, len(paths))
	for i, p := range paths {
		in, err := fs.LookupLocked(p)
		must(t, err)
		entries[i] = fs.imap.peek(in.Ino)
	}
	fs.Crash()
	fs2, err := Mount(fs.d, fs.cfg)
	must(t, err)
	for i, p := range paths {
		in, err := fs2.LookupLocked(p)
		must(t, err)
		if e := fs2.imap.peek(in.Ino); e.Addr != entries[i].Addr || e.Slot != entries[i].Slot {
			t.Errorf("%s: recovered inode at %v slot %d, want the commit's %v slot %d", p, e.Addr, e.Slot, entries[i].Addr, entries[i].Slot)
		}
	}
	readsBack(t, fs2, paths)
}

// TestCleanerRelocatesInlineInodes: cleaning the segment of a commit
// whose inline records are still current, though nothing else in the
// segment is, rewrites them, and a remount reads them back.
func TestCleanerRelocatesInlineInodes(t *testing.T) {
	cfg := smallConfig()
	cfg.GroupCommit = true
	cfg.SegmentSize = 64 << 10
	fs := newTestFS(t, 16<<20, cfg)
	bs := fs.cfg.BlockSize
	paths := []string{"/a", "/b", "/c"}
	for _, p := range paths {
		must(t, fs.Create(p))
	}
	must(t, fs.Create("/x"))
	must(t, fs.Sync())
	// Give the three files sizes but no blocks, dirtying their inodes
	// alone, and commit them beside /x's data.
	for i, p := range paths {
		must(t, fs.Truncate(p, int64(i+1)))
	}
	must(t, fs.Write("/x", 0, make([]byte, bs)))
	since := fs.writeSerial
	must(t, fs.FsyncFile("/x"))
	units := writtenSince(t, fs, since)
	if len(units) != 1 || units[0].Inline != len(paths)+1 {
		t.Fatalf("the commit wrote %d units, want 1 carrying %d inline records", len(units), len(paths)+1)
	}
	seg := units[0].seg
	// Kill the rest of the segment and seal it, so it is a victim.
	must(t, fs.Remove("/x"))
	must(t, fs.Create("/filler"))
	must(t, fs.Write("/filler", 0, make([]byte, 2*fs.cfg.blocksPerSegment()*bs)))
	must(t, fs.Sync())
	must(t, fs.Remove("/filler"))
	must(t, fs.Sync())
	if fs.usage[seg].State != segDirty {
		t.Fatalf("the commit's segment %d is in state %d, want sealed", seg, fs.usage[seg].State)
	}
	_, err := fs.CleanUntil(int(fs.sb.Segments))
	must(t, err)
	if st := fs.usage[seg].State; st != segClean && st != segPending {
		t.Fatalf("the commit's segment %d was not cleaned (state %d)", seg, st)
	}
	for _, p := range paths {
		in, err := fs.LookupLocked(p)
		must(t, err)
		if at := fs.segOf(fs.imap.peek(in.Ino).Addr); at == seg {
			t.Fatalf("%s: inode still in the cleaned segment %d", p, seg)
		}
	}
	must(t, fs.Unmount())
	fs2, err := Mount(fs.d, cfg)
	must(t, err)
	for i, p := range paths {
		if fi, err := fs2.Stat(p); err != nil || fi.Size != int64(i+1) {
			t.Fatalf("%s after a remount: %+v, %v; want size %d", p, fi, err, i+1)
		}
	}
	rep, err := fs2.Check()
	must(t, err)
	if !rep.Ok() {
		t.Fatalf("check: %v", rep.Problems)
	}
}

// TestCommitSpillsInodesPastFreeSlots: a commit with more dirty inodes
// than its summary has free slots logs them in inode blocks.
func TestCommitSpillsInodesPastFreeSlots(t *testing.T) {
	cfg := smallConfig()
	cfg.GroupCommit = true
	fs := newTestFS(t, 16<<20, cfg)
	for i := range 40 {
		must(t, fs.Create(fmt.Sprintf("/f%02d", i)))
	}
	since := fs.writeSerial
	must(t, fs.FsyncFile("/f00"))
	inodeBlocks := 0
	for _, u := range writtenSince(t, fs, since) {
		if u.Inline != 0 {
			t.Errorf("unit %d carries %d inline records, want none", u.Serial, u.Inline)
		}
		for _, k := range unitKinds(u) {
			if k == kindInodes {
				inodeBlocks++
			}
		}
	}
	if inodeBlocks != 2 {
		t.Errorf("41 dirty inodes went to %d inode blocks, want 2", inodeBlocks)
	}
	fs.Crash()
	fs2, err := Mount(fs.d, cfg)
	must(t, err)
	if _, err := fs2.Stat("/f39"); err != nil {
		t.Fatal(err)
	}
}

// TestCheckReportsDamagedInlineInode: a flipped byte in an inline record
// is a problem Check reports for that file, not a panic.
func TestCheckReportsDamagedInlineInode(t *testing.T) {
	fs, paths, _ := groupCommitOfThree(t)
	in, err := fs.LookupLocked(paths[1])
	must(t, err)
	e := fs.imap.peek(in.Ino)
	must(t, fs.Unmount())
	must(t, fs.d.FlipBits(int64(e.Addr), int(e.Slot)*layout.InodeSize+8, 0x10)) // its size
	fs2, err := Mount(fs.d, fs.cfg)
	must(t, err)
	rep, err := fs2.Check()
	must(t, err)
	if want := fmt.Sprintf("%s: lfs: inode %d not found", paths[1], in.Ino); !slices.ContainsFunc(rep.Problems, func(p string) bool {
		return strings.HasPrefix(p, want)
	}) {
		t.Fatalf("check of a damaged inline record: %q, want a problem starting %q", rep.Problems, want)
	}
}
