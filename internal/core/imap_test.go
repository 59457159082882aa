package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

func TestImapEntryRoundTrip(t *testing.T) {
	e := imapEntry{Addr: 12345, Slot: 3, Allocated: true, Version: 99, Atime: sim.Time(7 * sim.Second)}
	buf := make([]byte, imapEntrySize)
	e.encode(buf)
	got := decodeImapEntry(buf)
	if got != e {
		t.Fatalf("round trip: %+v vs %+v", got, e)
	}
}

func TestImapEntryRoundTripProperty(t *testing.T) {
	f := func(addr uint32, slot uint8, alloc bool, version uint32, atime int64) bool {
		e := imapEntry{Addr: layout.DiskAddr(addr), Slot: slot, Allocated: alloc, Version: version, Atime: sim.Time(atime)}
		buf := make([]byte, imapEntrySize)
		e.encode(buf)
		return decodeImapEntry(buf) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImapAllocFree(t *testing.T) {
	m := newImap(64, 4096)
	ino, err := m.allocNew()
	if err != nil {
		t.Fatal(err)
	}
	if ino != layout.RootIno {
		t.Fatalf("first ino = %d", ino)
	}
	ino2, _ := m.allocNew()
	if ino2 != ino+1 {
		t.Fatalf("second ino = %d", ino2)
	}
	if m.Allocated() != 2 {
		t.Fatalf("allocated = %d", m.Allocated())
	}
	v := m.get(ino2).Version
	m.free(ino2)
	if m.get(ino2).Version != v+1 {
		t.Fatal("free did not bump version")
	}
	// Freed number is reused, version preserved.
	ino3, _ := m.allocNew()
	if ino3 != ino2 {
		t.Fatalf("reuse gave %d, want %d", ino3, ino2)
	}
	if m.get(ino3).Version != v+1 {
		t.Fatal("reuse reset version")
	}
}

func TestImapExhaustion(t *testing.T) {
	m := newImap(16, 4096)
	for i := 0; i < 16; i++ {
		if _, err := m.allocNew(); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := m.allocNew(); err == nil {
		t.Fatal("17th alloc on 16-inode map succeeded")
	}
}

func TestImapDoubleFreePanics(t *testing.T) {
	m := newImap(16, 4096)
	ino, _ := m.allocNew()
	m.free(ino)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.free(ino)
}

func TestImapBlockRoundTrip(t *testing.T) {
	m := newImap(600, 4096)
	for i := 0; i < 500; i++ {
		ino, _ := m.allocNew()
		e := m.get(ino)
		e.Addr = layout.DiskAddr(1000 + i)
		e.Slot = uint8(i % 4)
		e.Atime = sim.Time(i)
	}
	// Serialize every block, load into a fresh map, compare.
	m2 := newImap(600, 4096)
	buf := make([]byte, 4096)
	for idx := 0; idx < m.blockCount(); idx++ {
		m.encodeBlock(idx, buf)
		m2.decodeBlock(idx, buf)
	}
	for ino := layout.RootIno; ino <= m.maxIno(); ino++ {
		if m.peek(ino) != m2.peek(ino) {
			t.Fatalf("ino %d differs after block round trip", ino)
		}
	}
	m2.rebuildFreeState()
	if m2.Allocated() != m.Allocated() {
		t.Fatalf("allocated %d vs %d after rebuild", m2.Allocated(), m.Allocated())
	}
}

func TestImapRebuildFreeState(t *testing.T) {
	m := newImap(64, 4096)
	var inos []layout.Ino
	for i := 0; i < 10; i++ {
		ino, _ := m.allocNew()
		inos = append(inos, ino)
	}
	m.free(inos[3])
	m.free(inos[7])
	m.rebuildFreeState()
	if m.Allocated() != 8 {
		t.Fatalf("allocated = %d", m.Allocated())
	}
	// The two freed numbers come back before any new high number.
	a, _ := m.allocNew()
	b, _ := m.allocNew()
	got := map[layout.Ino]bool{a: true, b: true}
	if !got[inos[3]] || !got[inos[7]] {
		t.Fatalf("rebuild lost freed numbers: reallocated %v and %v", a, b)
	}
	c, _ := m.allocNew()
	if c != inos[9]+1 {
		t.Fatalf("next fresh ino = %d, want %d", c, inos[9]+1)
	}
}

func TestImapDirtyTracking(t *testing.T) {
	m := newImap(1000, 4096)
	per := m.perBlock
	ino := layout.Ino(per + 1) // second block
	m.alloc(ino)
	if !m.dirtyBlock[1] {
		t.Fatal("alloc did not dirty the covering block")
	}
	if m.dirtyBlock[0] {
		t.Fatal("alloc dirtied an unrelated block")
	}
}

// eagerImap is the inode map as it was before it grew by the block —
// every entry resident and NilAddr from the start — kept here as the
// reference the lazy table is held to.
type eagerImap struct {
	entries   []imapEntry // index = ino
	freeList  []layout.Ino
	nextIno   layout.Ino
	allocated int
}

func newEagerImap(maxInodes int) *eagerImap {
	m := &eagerImap{entries: make([]imapEntry, maxInodes+1)}
	for i := range m.entries {
		m.entries[i].Addr = layout.NilAddr
	}
	return m
}

func (m *eagerImap) encodeBlock(idx, perBlock int, p []byte) {
	clear(p)
	for i := 0; i < perBlock && idx*perBlock+i+1 < len(m.entries); i++ {
		m.entries[idx*perBlock+i+1].encode(p[i*imapEntrySize:])
	}
}

func (m *eagerImap) decodeBlock(idx, perBlock int, p []byte) {
	for i := 0; i < perBlock && idx*perBlock+i+1 < len(m.entries); i++ {
		m.entries[idx*perBlock+i+1] = decodeImapEntry(p[i*imapEntrySize:])
	}
}

func (m *eagerImap) rebuildFreeState() {
	m.freeList, m.allocated, m.nextIno = nil, 0, layout.RootIno
	for ino := layout.RootIno; int(ino) < len(m.entries); ino++ {
		if m.entries[ino].Allocated {
			m.allocated++
			m.nextIno = ino + 1
		}
	}
	for ino := m.nextIno - 1; ino >= layout.RootIno; ino-- {
		if !m.entries[ino].Allocated {
			m.freeList = append(m.freeList, ino)
		}
	}
}

// resident counts the inode-map blocks whose entries are in memory.
func (m *imapTable) resident() int {
	n := 0
	for _, b := range m.blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// TestImapGrowsByTheBlock: the table holds the blocks something touched
// and no others, an allocation that crosses a block boundary brings in
// exactly the next block, the last block stops at MaxInodes, and a full
// map fails as it always did.
func TestImapGrowsByTheBlock(t *testing.T) {
	const maxInodes = 400 // 170 + 170 + 60
	m := newImap(maxInodes, 4096)
	if m.resident() != 0 || m.highIno() != 0 {
		t.Fatalf("a new map holds %d blocks (to inode %d), want none", m.resident(), m.highIno())
	}
	for want := 1; want <= maxInodes; want++ {
		ino, err := m.allocNew()
		if err != nil || int(ino) != want {
			t.Fatalf("allocation %d: inode %d, %v", want, ino, err)
		}
		if blocks := (want + m.perBlock - 1) / m.perBlock; m.resident() != blocks {
			t.Fatalf("after inode %d: %d blocks resident, want %d", want, m.resident(), blocks)
		}
	}
	if got := len(m.blocks[2]); got != 60 {
		t.Fatalf("last block holds %d entries, want the 60 up to MaxInodes", got)
	}
	if m.highIno() != maxInodes || m.Allocated() != maxInodes {
		t.Fatalf("full map: resident to %d, %d allocated", m.highIno(), m.Allocated())
	}
	_, err := m.allocNew()
	if want := fmt.Sprintf("inode map full (%d inodes)", maxInodes); err == nil || err.Error() != want {
		t.Fatalf("allocation past MaxInodes: %v, want %q", err, want)
	}
	if free := m.peek(maxInodes + 1); free.Allocated || !free.Addr.IsNil() || m.peek(0).Allocated {
		t.Fatal("a number outside the map does not read as free")
	}
}

// TestImapUntouchedBlockEncodesAsBefore: a block nobody has touched
// encodes, the instant something asks, to the bytes the eager table
// wrote for it — NilAddr entries, zero tail — in a full block and in the
// short last one, and reads back as free through peek without the read
// making it resident.
func TestImapUntouchedBlockEncodesAsBefore(t *testing.T) {
	const maxInodes = 400
	m, ref := newImap(maxInodes, 4096), newEagerImap(maxInodes)
	m.alloc(layout.RootIno)
	for _, idx := range []int{1, 2} {
		if e := m.peek(layout.Ino(idx*m.perBlock + 1)); e != (imapEntry{Addr: layout.NilAddr}) || m.blocks[idx] != nil {
			t.Fatalf("block %d: peek returned %+v or made the block resident", idx, e)
		}
		got, want := bytes.Repeat([]byte{0xEE}, 4096), make([]byte, 4096)
		m.encodeBlock(idx, got)
		ref.encodeBlock(idx, m.perBlock, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d encodes differently from the eager table", idx)
		}
	}
}

// TestImapHighBlockRebuild: a volume whose live inodes — the root aside —
// all sit in a high block of the map (600 files created, the first 599
// removed, checkpoint, remount) rebuilds its free list, next-inode mark
// and allocation count exactly as the eager table does from the same
// on-disk blocks, and holds only the blocks the checkpoint names.
func TestImapHighBlockRebuild(t *testing.T) {
	cfg := DefaultConfig()
	fs := newTestFS(t, 32<<20, cfg)
	for i := 0; i < 600; i++ {
		must(t, fs.Create(fmt.Sprintf("/f%03d", i)))
	}
	for i := 0; i < 599; i++ {
		must(t, fs.Remove(fmt.Sprintf("/f%03d", i)))
	}
	must(t, fs.Checkpoint())
	fs.Crash()
	fs2, err := Mount(fs.d, cfg)
	must(t, err)

	m, ref := fs2.imap, newEagerImap(cfg.MaxInodes)
	blk, named := make([]byte, cfg.BlockSize), 0
	for idx, addr := range m.blockAddrs {
		if addr.IsNil() {
			continue
		}
		named++
		must(t, fs2.d.Store().ReadAt(blk, int64(addr)*disk.SectorSize))
		ref.decodeBlock(idx, m.perBlock, blk)
	}
	ref.rebuildFreeState()
	if m.allocated != 2 || m.allocated != ref.allocated || m.nextIno != ref.nextIno || !slices.Equal(m.freeList, ref.freeList) {
		t.Fatalf("rebuilt free state: %d allocated, next %d, %d free; the eager table has %d, %d, %d",
			m.allocated, m.nextIno, len(m.freeList), ref.allocated, ref.nextIno, len(ref.freeList))
	}
	if named != 4 || m.resident() != named {
		t.Fatalf("%d blocks resident, the checkpoint names %d, want 4", m.resident(), named)
	}
	// The survivor is found, and the lowest freed number is handed out
	// first, as after any mount.
	if _, err := fs2.Stat("/f599"); err != nil {
		t.Fatal(err)
	}
	must(t, fs2.Create("/again"))
	if fi, err := fs2.Stat("/again"); err != nil || fi.Ino != layout.RootIno+1 {
		t.Fatalf("first inode after the remount: %+v, %v", fi, err)
	}
}

// TestCheckDoesNotGrowTheMap: the checker and Fsck read the map through
// peek; walking an empty volume leaves one block resident, as Mount left
// it, and reports what it always did.
func TestCheckDoesNotGrowTheMap(t *testing.T) {
	cfg := DefaultConfig()
	fs := newTestFS(t, 32<<20, cfg)
	if fs.imap.resident() != 1 {
		t.Fatalf("an empty mounted volume holds %d map blocks, want the root's", fs.imap.resident())
	}
	rep, err := fs.Check()
	if err != nil || !rep.Ok() || rep.Dirs != 1 {
		t.Fatalf("check of an empty volume: %v, %+v", err, rep)
	}
	if _, err := fs.getInode(layout.Ino(cfg.MaxInodes)); err == nil || !strings.Contains(err.Error(), "not allocated") {
		t.Fatalf("fetching a free inode of an untouched block: %v", err)
	}
	if fs.imap.resident() != 1 {
		t.Fatalf("Check left %d map blocks resident, want 1", fs.imap.resident())
	}
	must(t, fs.Unmount())
	rep, err = Fsck(fs.d, cfg)
	if err != nil || !rep.Ok() {
		t.Fatalf("fsck of an empty volume: %v, %+v", err, rep)
	}
}
