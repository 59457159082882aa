package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

// mapInodes is the in-core inode table as it was before it became
// dense: two hash maps, an eviction that sorts the clean inodes and a
// flush order that sorts the dirty ones. The model tests hold
// inodeTable to it.
type mapInodes struct {
	inodes map[layout.Ino]*layout.Inode
	dirty  map[layout.Ino]bool
}

func newMapInodes() *mapInodes {
	return &mapInodes{inodes: map[layout.Ino]*layout.Inode{}, dirty: map[layout.Ino]bool{}}
}

func (m *mapInodes) drop(ino layout.Ino) {
	delete(m.inodes, ino)
	delete(m.dirty, ino)
}

// dropClean is the old evictInodes loop (keep = inodeCacheLimit/2) and
// the old DropCaches loop (keep = 0).
func (m *mapInodes) dropClean(keep int) {
	clean := make([]layout.Ino, 0, len(m.inodes))
	for ino := range m.inodes {
		if !m.dirty[ino] {
			clean = append(clean, ino)
		}
	}
	slices.Sort(clean)
	for _, ino := range clean {
		if len(m.inodes) < keep {
			break
		}
		delete(m.inodes, ino)
	}
}

// flushOrder is the old batch-5 gather: map iteration, then a sort.
func (m *mapInodes) flushOrder() []layout.Ino {
	inos := []layout.Ino{}
	for ino := range m.dirty {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	return inos
}

// checkAgainst compares the table with the reference: the same in-core
// set holding the same pointers, the same dirty set, the same ascending
// flush order, and counts that match the contents.
func (m *mapInodes) checkAgainst(t *testing.T, tab *inodeTable, when string) {
	t.Helper()
	if tab.n != len(m.inodes) || tab.nDirty != len(m.dirty) {
		t.Fatalf("%s: table counts %d in core, %d dirty; reference %d, %d", when, tab.n, tab.nDirty, len(m.inodes), len(m.dirty))
	}
	inCore := 0
	for ino := range tab.slots {
		in := tab.get(layout.Ino(ino))
		if in != nil {
			inCore++
		}
		if in != m.inodes[layout.Ino(ino)] {
			t.Fatalf("%s: inode %d: table holds %p, reference %p", when, ino, in, m.inodes[layout.Ino(ino)])
		}
		if tab.isDirty(layout.Ino(ino)) != m.dirty[layout.Ino(ino)] {
			t.Fatalf("%s: inode %d: table dirty=%v, reference %v", when, ino, tab.isDirty(layout.Ino(ino)), m.dirty[layout.Ino(ino)])
		}
	}
	if inCore != len(m.inodes) {
		t.Fatalf("%s: table holds %d inodes, reference %d (one lies beyond the slice)", when, inCore, len(m.inodes))
	}
	if got, want := tab.appendDirty(nil), m.flushOrder(); !slices.Equal(got, want) {
		t.Fatalf("%s: flush order %v, reference %v", when, got, want)
	}
	if tab.max > 0 && len(tab.slots) > int(tab.max)+1 {
		t.Fatalf("%s: table grew to %d slots past max ino %d", when, len(tab.slots), tab.max)
	}
	if tab.get(tab.max+1) != nil || tab.isDirty(tab.max+1) {
		t.Fatalf("%s: an inode number past the table reads as present", when)
	}
}

// TestInodeTableMatchesMapModel drives the dense table and the map
// reference with one random stream of everything the file system does
// to it — create, unlink, inode number reuse, dirtying, a flush, cache
// pressure, DropCaches, a crash and the remount after it — and compares
// them after every step.
func TestInodeTableMatchesMapModel(t *testing.T) {
	const maxIno = 300 // not a multiple of 64, small enough that numbers are reused often
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := &inodeTable{max: maxIno}
		ref := newMapInodes()
		for step := 0; step < 20000; step++ {
			ino := layout.Ino(1 + rng.Intn(maxIno))
			when := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(100); {
			case op < 35: // create, or a fetch through the inode map; replaces on reuse
				in := &layout.Inode{Ino: ino}
				tab.put(ino, in)
				ref.inodes[ino] = in
			case op < 60: // a modification of an in-core inode
				if ref.inodes[ino] != nil {
					tab.setDirty(ino, true)
					ref.dirty[ino] = true
				}
			case op < 75: // unlink
				tab.drop(ino)
				ref.drop(ino)
			case op < 85: // the segment writer takes the queue in flush order
				for _, d := range tab.appendDirty(nil) {
					tab.setDirty(d, false)
				}
				for _, d := range ref.flushOrder() {
					delete(ref.dirty, d)
				}
			case op < 93: // evictInodes, at a limit this table can reach
				keep := 1 + rng.Intn(maxIno/2)
				if tab.n >= 2*keep {
					tab.dropClean(keep)
				}
				if len(ref.inodes) >= 2*keep {
					ref.dropClean(keep)
				}
			case op < 97: // DropCaches
				tab.dropClean(0)
				ref.dropClean(0)
			case op < 98: // Crash: nothing is in core or dirty any more
				*tab = inodeTable{}
				ref = newMapInodes()
				ref.checkAgainst(t, tab, when+" (crashed)")
				*tab = inodeTable{max: maxIno} // the remount
			default:
				if got, want := tab.get(ino), ref.inodes[ino]; got != want {
					t.Fatalf("%s: get(%d) = %p, reference %p", when, ino, got, want)
				}
			}
			ref.checkAgainst(t, tab, when)
		}
	}
}

// TestEvictInodesDeterministic is the regression test for the lfslint
// maporder finding once fixed in inode.go: eviction used to walk the
// inode table in map iteration order, so which inodes survived — and
// which future lookups went back to disk, charging simulated time —
// varied between reruns of the same seed. The eviction set must be the
// ascending-inode prefix of the clean inodes, every dirty inode must
// survive, and the table must land exactly on the half-limit mark.
func TestEvictInodesDeterministic(t *testing.T) {
	fs := &FS{inodes: inodeTable{max: 2 * inodeCacheLimit}}
	dirty := func(i layout.Ino) bool { return i%3 == 0 }
	for i := layout.Ino(1); i <= inodeCacheLimit; i++ {
		fs.inodes.put(i, &layout.Inode{Ino: i})
		fs.inodes.setDirty(i, dirty(i))
	}
	fs.evictInodes()

	if got, want := fs.inodes.n, inodeCacheLimit/2-1; got != want {
		t.Fatalf("evictInodes left %d inodes, want %d", got, want)
	}
	// The surviving clean inodes must be exactly the largest ones: an
	// ascending eviction never removes a clean inode above a survivor.
	minClean := layout.Ino(0)
	for i := layout.Ino(1); i <= inodeCacheLimit; i++ {
		switch present := fs.inodes.get(i) != nil; {
		case dirty(i) && (!present || !fs.inodes.isDirty(i)):
			t.Fatalf("dirty inode %d was evicted or lost its place in the queue", i)
		case !dirty(i) && present && minClean == 0:
			minClean = i
		case !dirty(i) && !present && minClean != 0:
			t.Fatalf("clean inode %d above the frontier %d was evicted", i, minClean)
		}
	}
	if minClean == 0 {
		t.Fatal("no clean inode survived")
	}
}

// TestInodeTableThroughFS walks a real file system through the events
// the model test draws at random, keeping a map of what each one must
// leave in the table: created and modified inodes queued in ascending
// order and logged in that order, an unlinked number reused without its
// old state, DropCaches keeping exactly the dirty inodes, a crash
// leaving nothing, and a remount that starts empty and fetches on demand.
func TestInodeTableThroughFS(t *testing.T) {
	cfg := smallConfig()
	d := disk.NewMem(16<<20, sim.NewClock())
	must(t, Format(d, cfg))
	fs, err := Mount(d, cfg)
	must(t, err)

	wantDirty := map[layout.Ino]bool{}
	check := func(when string) {
		t.Helper()
		ref := &mapInodes{inodes: map[layout.Ino]*layout.Inode{}, dirty: wantDirty}
		for ino, in := range fs.inodes.slots {
			if in != nil {
				ref.inodes[layout.Ino(ino)] = in
			}
		}
		ref.checkAgainst(t, &fs.inodes, when)
		for _, ino := range fs.inodes.appendDirty(nil) { // == wantDirty by now
			if fs.inodes.get(ino) == nil {
				t.Fatalf("%s: dirty inode %d is not in core", when, ino)
			}
		}
	}
	inoOf := func(path string) layout.Ino {
		fi, err := fs.Stat(path)
		must(t, err)
		return fi.Ino
	}

	const files = 100
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/f%03d", i)
		must(t, fs.Create(path))
		wantDirty[inoOf(path)] = true
	}
	wantDirty[layout.RootIno] = true
	check("after creates")

	// Unlink every third file: its number leaves both sets at once.
	var freed []layout.Ino
	for i := 0; i < files; i += 3 {
		path := fmt.Sprintf("/f%03d", i)
		ino := inoOf(path)
		must(t, fs.Remove(path))
		delete(wantDirty, ino)
		freed = append(freed, ino)
	}
	check("after unlinks")

	// The segment write takes the queue in ascending order: the log
	// holds the records in that order, and the queue is empty after.
	order := fs.inodes.appendDirty(nil)
	must(t, fs.Sync())
	clear(wantDirty)
	check("after sync")
	for i := 1; i < len(order); i++ {
		a, b := fs.imap.get(order[i-1]), fs.imap.get(order[i])
		if a.Addr > b.Addr || (a.Addr == b.Addr && a.Slot >= b.Slot) {
			t.Fatalf("inode %d logged at %v/%d, not before inode %d at %v/%d", order[i-1], a.Addr, a.Slot, order[i], b.Addr, b.Slot)
		}
	}

	// Reuse: new files take the freed numbers, as fresh dirty inodes.
	for i := range freed {
		path := fmt.Sprintf("/g%03d", i)
		must(t, fs.Create(path))
		ino := inoOf(path)
		if !slices.Contains(freed, ino) {
			t.Fatalf("create took inode %d, want one of the freed numbers %v", ino, freed)
		}
		if in := fs.inodes.get(ino); in.Size != 0 || in.Gen != fs.imap.get(ino).Version {
			t.Fatalf("reused inode %d inherited state: %+v", ino, in)
		}
		wantDirty[ino] = true
	}
	wantDirty[layout.RootIno] = true
	check("after reuse")

	fs.DropCaches()
	check("after DropCaches")
	if fs.inodes.n != len(wantDirty) {
		t.Fatalf("DropCaches kept %d inodes in core, want the %d dirty ones", fs.inodes.n, len(wantDirty))
	}

	must(t, fs.Sync())
	fs.Crash()
	if fs.inodes.n != 0 || fs.inodes.nDirty != 0 || fs.inodes.get(layout.RootIno) != nil {
		t.Fatalf("crash left %d inodes in core, %d dirty", fs.inodes.n, fs.inodes.nDirty)
	}

	fs, err = Mount(d, cfg)
	must(t, err)
	clear(wantDirty)
	check("after remount")
	if fs.inodes.n > 1 || len(fs.inodes.slots) > 64 {
		t.Fatalf("mount brought %d inodes in core in a table of %d slots, want at most the root in the smallest table", fs.inodes.n, len(fs.inodes.slots))
	}
	for i := range freed {
		inoOf(fmt.Sprintf("/g%03d", i))
	}
	check("after lookups")
	if fs.inodes.n < 2 {
		t.Fatal("lookups after the remount fetched no inode")
	}
}
