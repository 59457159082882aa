package ffs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

func newTestFS(t *testing.T, capacity int64) *FS {
	t.Helper()
	d := disk.NewMem(capacity, sim.NewClock())
	cfg := DefaultConfig()
	if err := Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestLayoutArithmetic(t *testing.T) {
	sb := superblock{BlockSize: 8192, BlocksPerGroup: 256, InodesPerGroup: 512, Groups: 4, TotalBlocks: 1025}
	lay := newLayout(sb)
	if lay.sectorsPerBlock != 16 {
		t.Fatalf("sectorsPerBlock = %d", lay.sectorsPerBlock)
	}
	if lay.inodesPerBlock != 8192/layout.InodeSize {
		t.Fatalf("inodesPerBlock = %d", lay.inodesPerBlock)
	}
	// Group starts advance by BlocksPerGroup from block 1.
	if lay.groupStart(0) != 1 || lay.groupStart(1) != 257 {
		t.Fatalf("group starts = %d, %d", lay.groupStart(0), lay.groupStart(1))
	}
	// Data region begins after the bitmap and inode table.
	want := lay.groupStart(2) + 1 + int64(lay.itBlocks)
	if lay.dataStart(2) != want {
		t.Fatalf("dataStart = %d, want %d", lay.dataStart(2), want)
	}
	// Ino <-> (group, slot) round trip.
	for _, ino := range []layout.Ino{1, 2, 512, 513, 1024, 2048} {
		g, s := lay.groupOf(ino), lay.slotOf(ino)
		if lay.inoFor(g, s) != ino {
			t.Fatalf("ino %d -> (%d,%d) -> %d", ino, g, s, lay.inoFor(g, s))
		}
	}
	if !lay.validIno(1) || !lay.validIno(lay.maxIno()) || lay.validIno(0) || lay.validIno(lay.maxIno()+1) {
		t.Fatal("validIno boundaries wrong")
	}
	// Block <-> group mapping.
	if lay.blockToGroup(0) != -1 {
		t.Fatal("superblock mapped to a group")
	}
	if lay.blockToGroup(1) != 0 || lay.blockToGroup(256) != 0 || lay.blockToGroup(257) != 1 {
		t.Fatal("blockToGroup boundaries wrong")
	}
	// Address conversions invert each other.
	for _, pb := range []int64{1, 100, 1000} {
		if lay.blockOf(lay.addrOf(pb)) != pb {
			t.Fatalf("addr round trip failed for block %d", pb)
		}
	}
}

func TestBitOps(t *testing.T) {
	bm := make([]byte, 4)
	for i := 0; i < 32; i++ {
		if testBit(bm, i) {
			t.Fatalf("fresh bit %d set", i)
		}
	}
	setBit(bm, 0)
	setBit(bm, 7)
	setBit(bm, 8)
	setBit(bm, 31)
	for i := 0; i < 32; i++ {
		want := i == 0 || i == 7 || i == 8 || i == 31
		if testBit(bm, i) != want {
			t.Fatalf("bit %d = %v", i, testBit(bm, i))
		}
	}
	clearBit(bm, 7)
	if testBit(bm, 7) {
		t.Fatal("clearBit failed")
	}
	if !testBit(bm, 0) || !testBit(bm, 8) {
		t.Fatal("clearBit clobbered neighbours")
	}
}

// TestInodePlacementPolicy: files go to their parent directory's
// group; new directories spread across groups.
func TestInodePlacementPolicy(t *testing.T) {
	fs := newTestFS(t, 64<<20)
	// Create several directories; they should land in different
	// groups.
	groups := map[int]bool{}
	for i := 0; i < 4; i++ {
		p := string(rune('a' + i)) // /a /b /c /d
		if err := fs.Mkdir("/" + p); err != nil {
			t.Fatal(err)
		}
		fi, err := fs.Stat("/" + p)
		if err != nil {
			t.Fatal(err)
		}
		groups[fs.lay.groupOf(fi.Ino)] = true
	}
	if len(groups) < 2 {
		t.Fatalf("4 directories all in %d group(s); they should spread", len(groups))
	}
	// Files share their parent's group.
	if err := fs.Create("/a/child"); err != nil {
		t.Fatal(err)
	}
	dirFi, _ := fs.Stat("/a")
	fileFi, _ := fs.Stat("/a/child")
	if fs.lay.groupOf(dirFi.Ino) != fs.lay.groupOf(fileFi.Ino) {
		t.Fatalf("file in group %d, parent dir in group %d",
			fs.lay.groupOf(fileFi.Ino), fs.lay.groupOf(dirFi.Ino))
	}
}

// TestDataBlockLocality: a file's data blocks are allocated in its
// inode's cylinder group while space lasts.
func TestDataBlockLocality(t *testing.T) {
	fs := newTestFS(t, 64<<20)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, make([]byte, 10*8192)); err != nil {
		t.Fatal(err)
	}
	in, err := fs.readInode(2) // first file after root
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.Stat("/f")
	in, err = fs.readInode(fi.Ino)
	if err != nil {
		t.Fatal(err)
	}
	g := fs.lay.groupOf(in.Ino)
	for i := 0; i < 10; i++ {
		a := in.Direct[i]
		if a.IsNil() {
			t.Fatalf("block %d unallocated", i)
		}
		if fs.lay.blockToGroup(fs.lay.blockOf(a)) != g {
			t.Fatalf("block %d allocated in group %d, inode in group %d",
				i, fs.lay.blockToGroup(fs.lay.blockOf(a)), g)
		}
	}
}

// TestAllocSpillsToOtherGroups: when the preferred group fills, the
// allocator moves on rather than failing.
func TestAllocSpillsToOtherGroups(t *testing.T) {
	fs := newTestFS(t, 16<<20)
	// One group holds ~2MB of data; write 6MB into one file.
	if err := fs.Create("/big"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/big", 0, make([]byte, 6<<20)); err != nil {
		t.Fatalf("cross-group allocation failed: %v", err)
	}
	fi, _ := fs.Stat("/big")
	if fi.Size != 6<<20 {
		t.Fatalf("size = %d", fi.Size)
	}
}

func TestFreeBlockDoubleFree(t *testing.T) {
	fs := newTestFS(t, 16<<20)
	pb, err := fs.allocBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.freeBlock(pb); err != nil {
		t.Fatal(err)
	}
	if err := fs.freeBlock(pb); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestSuperblockRoundTrip(t *testing.T) {
	sb := superblock{BlockSize: 8192, BlocksPerGroup: 256, InodesPerGroup: 512, Groups: 37, TotalBlocks: 9473}
	buf := make([]byte, 8192)
	sb.encode(buf)
	got, err := decodeSuperblock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Fatalf("round trip: %+v vs %+v", got, sb)
	}
	buf[5] ^= 0xFF
	if _, err := decodeSuperblock(buf); err == nil {
		t.Fatal("corrupted superblock decoded")
	}
}

// TestUnlinkForgetsReadAheadPosition: freeing an inode drops its
// last-read block, so a file created on the reused number does not
// inherit a read-ahead position: its first read at old+1 is not
// sequential and fetches one block.
func TestUnlinkForgetsReadAheadPosition(t *testing.T) {
	fs := newTestFS(t, 32<<20)
	bs := fs.cfg.BlockSize
	const k = 3
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ino := func(path string) layout.Ino {
		t.Helper()
		fi, err := fs.Stat(path)
		must(err)
		return fi.Ino
	}
	buf := make([]byte, bs)
	must(fs.Create("/old"))
	must(fs.Write("/old", 0, make([]byte, (k+1)*bs)))
	old := ino("/old")
	for lbn := 0; lbn <= k; lbn++ {
		_, err := fs.Read("/old", int64(lbn*bs), buf)
		must(err)
	}
	must(fs.Remove("/old"))

	must(fs.Create("/new"))
	if got := ino("/new"); got != old {
		t.Fatalf("new file got inode %d, expected the freed %d to be reused", got, old)
	}
	must(fs.Write("/new", 0, make([]byte, 4*k*bs)))
	must(fs.Sync())
	fs.DropCaches()
	ino("/new") // the path and inode cached: the read below fetches file blocks only
	before := fs.d.Stats()
	_, err := fs.Read("/new", int64((k+1)*bs), buf)
	must(err)
	if got := fs.d.Stats().Sub(before); got.Reads != 1 || got.BytesRead() != int64(bs) {
		t.Fatalf("first read of a new file at block %d: %d requests of %d bytes, want one of one block: it inherited the unlinked file's position",
			k+1, got.Reads, got.BytesRead())
	}
}

// TestDirectoryHoleIsReported: a directory whose middle block pointer is
// lost is not listed, emptied, removed or checked as if the block's
// entries had never existed — every walk, fsck's too, reports the hole. (core has the twin of
// this test; the walks are vfs.Dirs under both, and before they were
// shared only this file system refused the hole in all of them.)
func TestDirectoryHoleIsReported(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 4096
	d := disk.NewMem(64<<20, sim.NewClock())
	if err := Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// per is how many names a 4 KB block holds: as many as one
	// directory block does, in each of its eight.
	per := 0
	for blk := make([]byte, disk.SectorSize); ; per++ {
		ok, err := layout.DirBlockInsert(blk, layout.DirEntry{Ino: 1, Name: fmt.Sprintf("f%06d", per)})
		must(err)
		if !ok {
			break
		}
	}
	per *= cfg.BlockSize / disk.SectorSize
	must(fs.Mkdir("/d"))
	for i := 0; i < 2*per+72; i++ { // three 4 KB blocks: two full, one of 72 names
		must(fs.Create(fmt.Sprintf("/d/f%06d", i)))
	}
	must(fs.Sync())
	fi, err := fs.Stat("/d")
	must(err)
	in, err := fs.readInode(fi.Ino)
	must(err)
	if blocks := layout.BlocksForSize(in.Size, cfg.BlockSize); blocks != 3 {
		t.Fatalf("/d has %d blocks, want 3", blocks)
	}
	fs.bc.Remove(blockKey(fs.lay.blockOf(in.Direct[1])))
	in.Direct[1] = layout.NilAddr
	must(fs.writeInode(&in, true, "test: lose a block pointer"))

	hole := fmt.Sprintf("directory %d has a hole at block 1", fi.Ino)
	wantHole := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), hole) {
			t.Errorf("%s: %v, want an error saying %q", what, err, hole)
		}
	}
	ents, err := fs.ReadDir("/d")
	wantHole(fmt.Sprintf("ReadDir (%d entries)", len(ents)), err)
	wantHole("Remove of a name in the lost block", fs.Remove(fmt.Sprintf("/d/f%06d", per+per/2)))
	// Even with every entry of the two remaining blocks gone, the
	// directory is not known to be empty.
	for i := 0; i < 2*per+72; i++ {
		if i < per || i >= 2*per {
			must(fs.Remove(fmt.Sprintf("/d/f%06d", i)))
		}
	}
	wantHole("Remove of the directory", fs.Remove("/d"))
	must(fs.Sync())
	rep, err := Fsck(d, cfg)
	must(err)
	if !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.Contains(p, hole) }) {
		t.Errorf("Fsck does not report the hole; problems: %q", rep.Problems)
	}
}
