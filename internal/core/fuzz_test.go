package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// The on-disk decoders parse raw bytes from (possibly corrupted or
// torn) disk images; none of them may panic or over-read, whatever
// the input. Each fuzz target seeds with a valid encoding plus
// mutations; without -fuzz these run as ordinary regression tests
// over the seed corpus.

// FuzzReadUnit reads the unit at block 0 of a segment of 512-byte
// blocks: a unit it accepts lies inside the segment, with one entry and
// one data block per block it claims, data that matches its DataCRC, and
// inline records that lie past its entries in its last summary block.
func FuzzReadUnit(f *testing.F) {
	const bs = 512
	refs := []blockRef{
		{Kind: kindData, Ino: 7, ID: 3, Version: 1},
		{Kind: kindInodes},
	}
	valid := make([]byte, 3*bs)
	valid[bs+7] = 0xA5 // a payload whose checksum is not the zero block's
	h := summaryHeader{Serial: 5, NBlocks: 2, SumBlocks: 1, Timestamp: sim.Time(9), DataCRC: layout.DataChecksum(valid[bs:])}
	encodeSummary(h, refs, valid[:bs])
	f.Add(valid)
	f.Add(make([]byte, bs))
	f.Add([]byte{0x4D, 0x55, 0x53, 0x4C})
	truncated := make([]byte, 70)
	copy(truncated, valid)
	f.Add(truncated)
	inline := bytes.Clone(valid) // two inode records in the summary's last slots
	h.Inline = 2
	for i := range h.Inline {
		rec := layout.NewInode(layout.Ino(3+i), layout.ModeFile)
		rec.Encode(inline[bs-(i+1)*layout.InodeSize:])
	}
	encodeSummary(h, refs, inline[:bs])
	f.Add(inline)
	f.Fuzz(func(t *testing.T, seg []byte) {
		u, err := readUnit(seg, 0, bs, nil)
		if err == nil && (u.end*bs > len(seg) || len(u.refs) != u.NBlocks || len(u.data) != u.NBlocks*bs) {
			t.Fatalf("accepted a unit of %d blocks ending at block %d of %d bytes, with %d refs",
				u.NBlocks, u.end, len(seg), len(u.refs))
		}
		if err == nil && (len(u.inline) != u.Inline*layout.InodeSize || u.room(bs) < 0 || u.Inline*layout.InodeSize > bs) {
			t.Fatalf("accepted %d inline records in %d bytes, %d bytes after %d entries", u.Inline, len(u.inline), u.room(bs), u.NBlocks)
		}
		if err == nil && layout.DataChecksum(u.data) != u.DataCRC {
			t.Fatalf("accepted a unit whose data does not match its DataCRC %#x", u.DataCRC)
		}
	})
}

func FuzzDecodeCheckpoint(f *testing.F) {
	st := checkpointState{
		Serial: 3, Timestamp: 11, HeadSeg: 1, HeadBlk: 2, WriteSerial: 9,
		ImapAddrs: []layout.DiskAddr{1, 2},
		Usage:     []segUsage{{Live: 5}, {State: segDirty}},
	}
	valid := make([]byte, 1024)
	encodeCheckpoint(st, valid)
	f.Add(valid)
	f.Add(make([]byte, 1024))
	f.Add(valid[:ckptHeaderSize-1]) // truncated mid-header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeCheckpoint(data)
		if err == nil {
			// Accepted checkpoints must have internally consistent
			// lengths.
			need := ckptHeaderSize + len(st.ImapAddrs)*layout.AddrSize + len(st.Usage)*segUsageEntrySize + 4
			if need > len(data) {
				t.Fatalf("accepted checkpoint larger than its buffer")
			}
		}
	})
}

func FuzzDecodeSuperblockLFS(f *testing.F) {
	sb := superblock{BlockSize: 4096, SegmentSize: 1 << 20, MaxInodes: 1024, Segments: 8, CkptBytes: 1024, Ckpt0Sector: 8, Ckpt1Sector: 10, SegStart: 16}
	valid := make([]byte, 4096)
	sb.encode(valid)
	f.Add(valid)
	f.Add(make([]byte, 4096))
	f.Add(valid[:63]) // truncated mid-header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeSuperblock(data)
	})
}

func FuzzDecodeImapEntry(f *testing.F) {
	e := imapEntry{Addr: 99, Slot: 2, Allocated: true, Version: 7, Atime: 123}
	buf := make([]byte, imapEntrySize)
	e.encode(buf)
	f.Add(buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < imapEntrySize {
			return
		}
		_ = decodeImapEntry(data)
	})
}

// mountImage is the volume FuzzMountImage damages: small, valid, and
// holding one of everything a mount reads, by construction — files in
// nested directories (one with an indirect block), deletions, a cleaner
// pass that relocated live blocks, two generations of checkpoint, and a
// tail of log units written after the last one for roll-forward to
// replay, ending with an fsync whose summary carries the file's inode.
// seeds are byte offsets into it, one or more inside each structure;
// cycleOff and cycleXor turn /d/e's entry for its file into an entry for
// /d, its own parent.
type mountImage struct {
	cfg      Config
	bytes    []byte
	seeds    []uint32
	cycleOff uint32
	cycleXor byte
}

func buildMountImage(t testing.TB) *mountImage {
	cfg := DefaultConfig()
	cfg.SegmentSize = 64 << 10
	cfg.CacheBlocks = 64
	cfg.MaxInodes = 512
	fs := newTestFS(t, 4<<20, cfg)
	must(t, fs.Mkdir("/d"))
	must(t, fs.Mkdir("/d/e"))
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("/d/s%02d", i)
		must(t, fs.Create(p))
		must(t, fs.Write(p, 0, bytes.Repeat([]byte{byte(i)}, 6000)))
	}
	must(t, fs.Create("/d/e/big"))
	must(t, fs.Write("/d/e/big", 0, bytes.Repeat([]byte{0xB1}, 20*cfg.BlockSize)))
	must(t, fs.Checkpoint())
	for i := 0; i < 40; i += 2 {
		must(t, fs.Remove(fmt.Sprintf("/d/s%02d", i)))
	}
	must(t, fs.Sync())
	res, err := fs.CleanUntil(fs.CleanSegments() + 2) // checkpoints when it is done
	must(t, err)
	if res.SegmentsCleaned == 0 || res.LiveCopied == 0 {
		t.Fatalf("the image's cleaner pass moved nothing: %+v", res)
	}
	tail := fs.heads[classHot]
	must(t, fs.Create("/tail"))
	must(t, fs.Write("/tail", 0, bytes.Repeat([]byte{0x7A}, 3*cfg.BlockSize)))
	must(t, fs.Sync())
	must(t, fs.Mkdir("/d/late"))
	must(t, fs.Sync())
	since := fs.writeSerial
	must(t, fs.Write("/tail", int64(cfg.BlockSize), bytes.Repeat([]byte{0x7B}, cfg.BlockSize)))
	must(t, fs.FsyncFile("/tail"))

	at := func(sector int64, off int) uint32 { return uint32(sector*disk.SectorSize) + uint32(off) }
	dirBlock := func(path string) (layout.Ino, int64) {
		fi, err := fs.Stat(path)
		must(t, err)
		in, err := fs.getInode(fi.Ino)
		must(t, err)
		return fi.Ino, int64(in.Direct[0])
	}
	_, rootDir := dirBlock("/")
	parent, _ := dirBlock("/d")
	_, subDir := dirBlock("/d/e")
	rootRec := fs.imap.peek(layout.RootIno)
	rootSlot := int(rootRec.Slot) * layout.InodeSize
	imap0 := int64(fs.imap.blockAddrs[0])
	ckpt0, ckpt1 := int64(fs.sb.Ckpt0Sector), int64(fs.sb.Ckpt1Sector)
	usage := ckptHeaderSize + fs.imap.blockCount()*layout.AddrSize
	tailUnit := fs.blockSector(tail.seg, tail.blk)
	commit := writtenSince(t, fs, since)
	if len(commit) != 1 || commit[0].Inline != 1 {
		t.Fatalf("the tail's fsync left %d units, want one carrying its inode", len(commit))
	}
	commitUnit := fs.blockSector(commit[0].seg, commit[0].blk)
	fs.Crash()

	img := &mountImage{cfg: cfg, bytes: make([]byte, fs.d.Capacity())}
	must(t, fs.d.Store().ReadAt(img.bytes, 0))
	img.seeds = []uint32{
		// Superblock: magic, MaxInodes, Segments.
		at(0, 0), at(0, 12), at(0, 16),
		// Checkpoint regions: serial, head, write serial, the first imap
		// block's address, a segment's state.
		at(ckpt0, 4), at(ckpt0, 20), at(ckpt0, ckptHeaderSize),
		at(ckpt1, 28), at(ckpt1, ckptHeaderSize), at(ckpt1, usage+24),
		// The tail's first unit: serial, NBlocks, an entry's inode, its data.
		at(tailUnit, 4), at(tailUnit, 12), at(tailUnit, summaryHeaderSize+4), at(tailUnit, cfg.BlockSize+100),
		// The fsync ending the tail: its inline-record count, and its inode
		// record in the summary's last slot (number, size, first pointer).
		at(commitUnit, 34), at(commitUnit, cfg.BlockSize-layout.InodeSize),
		at(commitUnit, cfg.BlockSize-layout.InodeSize+8), at(commitUnit, cfg.BlockSize-layout.InodeSize+32),
		// Inode map block 0: the root's address and flag, a version.
		at(imap0, 0), at(imap0, 5), at(imap0, imapEntrySize+8),
		// The root's inode record: its number, its first pointer.
		at(int64(rootRec.Addr), rootSlot), at(int64(rootRec.Addr), rootSlot+32),
		// The root directory: the entry count, the first entry's name.
		at(rootDir, 0), at(rootDir, 8),
	}
	// A directory block starts with a 2-byte count, then the first entry's
	// 4-byte inode number.
	img.cycleOff = at(subDir, 2)
	img.cycleXor = img.bytes[img.cycleOff] ^ byte(parent)
	return img
}

// FuzzMountImage flips one byte of a valid image (off is taken modulo
// its size; xor 0 leaves it intact) and mounts it. Whatever the byte, a
// mount either fails with an error or yields a file system on which the
// checker finishes and a walk of the whole tree ends: a failed
// operation returns a *vfs.PathError, and the walk stops at a directory
// cycle only where the checker reports one. Never a panic. The seeds
// cover the superblock, both checkpoint regions, a summary and its unit,
// a commit's inline inode record, an inode-map block, an inode block and
// two directories; without -fuzz they are the regression.
func FuzzMountImage(f *testing.F) {
	img := buildMountImage(f)
	f.Add(uint32(0), byte(0))
	for _, off := range img.seeds {
		for _, xor := range []byte{0x01, 0x80, 0xFF} {
			f.Add(off, xor)
		}
	}
	f.Add(img.cycleOff, img.cycleXor)
	f.Fuzz(func(t *testing.T, off uint32, xor byte) {
		d := disk.NewMem(int64(len(img.bytes)), sim.NewClock())
		must(t, d.Store().WriteAt(img.bytes, 0))
		off %= uint32(len(img.bytes))
		must(t, d.Store().WriteAt([]byte{img.bytes[off] ^ xor}, int64(off)))
		fs, err := Mount(d, img.cfg)
		if err != nil {
			return
		}
		if xor == 0 && fs.stats.RollForwardUnits == 0 {
			t.Fatal("the intact image had no tail to roll forward")
		}
		rep, err := fs.Check()
		if err != nil {
			t.Fatalf("check of a mounted volume: %v", err)
		}
		// vfs.Walk follows names, so a directory entry that leads back to
		// an ancestor (ROADMAP item 2: a flipped block is served unverified)
		// stops it with ErrCycle, and the checker must have said why.
		err = vfs.Walk(fs, "/", func(string, vfs.FileInfo) error { return nil })
		var pe *vfs.PathError
		switch {
		case err != nil && !errors.As(err, &pe):
			t.Fatalf("walk: %v; checker: %q", err, rep.Problems)
		case errors.Is(err, vfs.ErrCycle) && rep.Ok():
			t.Fatalf("walk: %v, but the checker found no problem", err)
		}
		if off == img.cycleOff && xor == img.cycleXor &&
			!(errors.Is(err, vfs.ErrCycle) && strings.Contains(strings.Join(rep.Problems, "\n"), "reached twice")) {
			t.Fatalf("the cycle seed: walk %v, checker %q; want ErrCycle and the cycle reported", err, rep.Problems)
		}
	})
}
