package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

// mapInodes is the in-core inode table as it was before it became
// dense: two hash maps, an eviction that sorts the clean inodes and a
// flush order that sorts the dirty ones — plus what the paged table
// added, the records an operation still holds after they were evicted.
// The model tests hold inodeTable to it.
type mapInodes struct {
	inodes  map[layout.Ino]layout.Inode // in core, by value
	dirty   map[layout.Ino]bool
	evicted map[layout.Ino]layout.Inode // dropped clean, still held
}

func newMapInodes() *mapInodes {
	return &mapInodes{inodes: map[layout.Ino]layout.Inode{}, dirty: map[layout.Ino]bool{}, evicted: map[layout.Ino]layout.Inode{}}
}

func (m *mapInodes) drop(ino layout.Ino) {
	delete(m.inodes, ino)
	delete(m.dirty, ino)
	delete(m.evicted, ino)
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
		m.evicted[ino] = m.inodes[ino]
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
// set holding the same records, each where it was installed, the same
// dirty set, the same ascending flush order, and counts that match the
// contents.
func (m *mapInodes) checkAgainst(t *testing.T, tab *inodeTable, held map[layout.Ino]*layout.Inode, when string) {
	t.Helper()
	if tab.n != len(m.inodes) || tab.nDirty != len(m.dirty) {
		t.Fatalf("%s: table counts %d in core, %d dirty; reference %d, %d", when, tab.n, tab.nDirty, len(m.inodes), len(m.dirty))
	}
	inCore := 0
	for ino := layout.Ino(0); int(ino) < 64*len(tab.pages); ino++ {
		in := tab.get(ino)
		want, ok := m.inodes[ino]
		switch {
		case (in != nil) != ok:
			t.Fatalf("%s: inode %d: in core %v, reference %v", when, ino, in != nil, ok)
		case in != nil && *in != want:
			t.Fatalf("%s: inode %d: table holds %+v, reference %+v", when, ino, *in, want)
		case in != nil && held[ino] != nil && in != held[ino]:
			t.Fatalf("%s: inode %d moved from %p to %p", when, ino, held[ino], in)
		}
		if in != nil {
			inCore++
		}
		if tab.isDirty(ino) != m.dirty[ino] {
			t.Fatalf("%s: inode %d: table dirty=%v, reference %v", when, ino, tab.isDirty(ino), m.dirty[ino])
		}
	}
	if inCore != len(m.inodes) {
		t.Fatalf("%s: table holds %d inodes, reference %d (one lies beyond the pages)", when, inCore, len(m.inodes))
	}
	if got, want := tab.appendDirty(nil), m.flushOrder(); !slices.Equal(got, want) {
		t.Fatalf("%s: flush order %v, reference %v", when, got, want)
	}
	if tab.max > 0 && len(tab.pages) > int(tab.max/64)+1 {
		t.Fatalf("%s: table grew to %d pages past max ino %d", when, len(tab.pages), tab.max)
	}
	if tab.get(tab.max+1) != nil || tab.isDirty(tab.max+1) {
		t.Fatalf("%s: an inode number past the table reads as present", when)
	}
}

// TestInodeTableMatchesMapModel drives the paged table and the map
// reference with one random stream of everything the file system does
// to it — create, unlink, inode number reuse, dirtying (also of a
// record evicted while an operation held it), a flush, cache pressure,
// DropCaches, a crash and the remount after it — and compares them
// after every step. Even seeds run poisoned: an unlinked record must
// read as the scribble, and an evicted one must come back intact.
func TestInodeTableMatchesMapModel(t *testing.T) {
	const maxIno = 300 // not a multiple of 64, small enough that numbers are reused often
	defer func() { cache.DebugPoison = false }()
	for seed := int64(1); seed <= 4; seed++ {
		cache.DebugPoison = seed%2 == 0
		rng := rand.New(rand.NewSource(seed))
		tab := &inodeTable{max: maxIno}
		ref := newMapInodes()
		held := map[layout.Ino]*layout.Inode{} // what install returned
		for step := 0; step < 20000; step++ {
			ino := layout.Ino(1 + rng.Intn(maxIno))
			when := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(100); {
			case op < 35: // create, or a fetch through the inode map; replaces on reuse
				rec := layout.Inode{Ino: ino, Size: uint64(step)}
				held[ino] = tab.install(ino, rec)
				ref.inodes[ino] = rec
				delete(ref.evicted, ino)
			case op < 60: // a modification through the record an operation holds
				rec, ok := ref.inodes[ino]
				if !ok {
					if rec, ok = ref.evicted[ino]; !ok {
						break
					}
					delete(ref.evicted, ino)
				}
				rec.Mtime = int64(step)
				held[ino].Mtime = rec.Mtime
				tab.setDirty(ino, true)
				ref.inodes[ino] = rec
				ref.dirty[ino] = true
			case op < 75: // unlink
				_, inCore := ref.inodes[ino]
				tab.drop(ino)
				ref.drop(ino)
				if inCore && cache.DebugPoison && held[ino].Ino != 0xDBDBDBDB {
					t.Fatalf("%s: unlinked inode %d not scribbled: %+v", when, ino, *held[ino])
				}
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
				clear(held)
				ref.checkAgainst(t, tab, held, when+" (crashed)")
				*tab = inodeTable{max: maxIno} // the remount
			default:
				if got, want := tab.get(ino), held[ino]; got != nil && got != want {
					t.Fatalf("%s: get(%d) = %p, installed at %p", when, ino, got, want)
				}
			}
			ref.checkAgainst(t, tab, held, when)
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
		fs.inodes.install(i, layout.Inode{Ino: i})
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
		ref := &mapInodes{inodes: map[layout.Ino]layout.Inode{}, dirty: wantDirty}
		for ino := layout.Ino(0); int(ino) < 64*len(fs.inodes.pages); ino++ {
			if in := fs.inodes.get(ino); in != nil {
				ref.inodes[ino] = *in
			}
		}
		ref.checkAgainst(t, &fs.inodes, nil, when)
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
	if fs.inodes.n > 1 || len(fs.inodes.pages) > 1 {
		t.Fatalf("mount brought %d inodes in core in a table of %d pages, want at most the root in the smallest table", fs.inodes.n, len(fs.inodes.pages))
	}
	for i := range freed {
		inoOf(fmt.Sprintf("/g%03d", i))
	}
	check("after lookups")
	if fs.inodes.n < 2 {
		t.Fatal("lookups after the remount fetched no inode")
	}
}

// fillInodeTable creates files in a new directory /e until the in-core
// table is past inodeCacheLimit, then syncs: every record is clean, and
// the next inode fetched from disk evicts the lowest-numbered half.
func fillInodeTable(t *testing.T, fs *FS) {
	t.Helper()
	must(t, fs.Mkdir("/e"))
	for i := 0; fs.inodes.n <= inodeCacheLimit; i++ {
		must(t, fs.Create(fmt.Sprintf("/e/%d", i)))
	}
	must(t, fs.Sync())
}

// TestRemoveKeepsEvictedParentMtime: Remove holds the parent it
// resolved while it fetches the child, and that fetch may evict the
// parent. The parent's new Mtime used to go into a record the table no
// longer had, and a later Stat read the old one back from disk.
func TestRemoveKeepsEvictedParentMtime(t *testing.T) {
	fs := newTestFS(t, 64<<20, DefaultConfig())
	must(t, fs.Mkdir("/d"))
	for i := 0; i < 40; i++ {
		must(t, fs.Create(fmt.Sprintf("/d/x%02d", i)))
	}
	must(t, fs.Sync())
	d, x := dirIno(t, fs, "/d"), dirIno(t, fs, "/d/x39")
	fs.DropCaches()
	fillInodeTable(t, fs) // the root's fetch brings /d back, not /d/x39
	if fs.inodes.get(d) == nil || fs.inodes.get(x) != nil {
		t.Fatal("setup: want /d in core and /d/x39 on disk only")
	}

	before := fs.clock.Now()
	must(t, fs.Remove("/d/x39"))
	fi, err := fs.Stat("/d")
	must(t, err)
	if fi.Mtime < before {
		t.Fatalf("/d Mtime %v after Remove at %v: the update was lost", fi.Mtime, before)
	}
	must(t, fs.Sync())
	fs.DropCaches()
	if again, err := fs.Stat("/d"); err != nil || again.Mtime != fi.Mtime {
		t.Fatalf("/d after Sync and DropCaches: Mtime %v, %v; want %v", again.Mtime, err, fi.Mtime)
	}
}

// TestLinkKeepsEvictedNlink: Link holds the file while it resolves the
// new parent, whose fetch may evict the file. The Nlink increment used
// to go into a record the table no longer had, and every later Sync
// failed on a dirty inode missing from the table.
func TestLinkKeepsEvictedNlink(t *testing.T) {
	fs := newTestFS(t, 64<<20, DefaultConfig())
	must(t, fs.Mkdir("/b"))
	must(t, fs.Sync()) // /b's record goes to an inode block of its own
	must(t, fs.Mkdir("/a"))
	must(t, fs.Create("/a/f00"))
	data := []byte("the second name still reads this")
	must(t, fs.Write("/a/f00", 0, data))
	must(t, fs.Sync())
	b, f := dirIno(t, fs, "/b"), dirIno(t, fs, "/a/f00")
	fs.DropCaches()
	fillInodeTable(t, fs) // the root's fetch brings /a/f00 back, not /b
	if fs.inodes.get(f) == nil || fs.inodes.get(b) != nil {
		t.Fatal("setup: want /a/f00 in core and /b on disk only")
	}

	must(t, fs.Link("/a/f00", "/b/g"))
	must(t, fs.Sync())
	if fi, err := fs.Stat("/b/g"); err != nil || fi.Nlink != 2 {
		t.Fatalf("/b/g after Link: Nlink %d, %v; want 2", fi.Nlink, err)
	}
	must(t, fs.Remove("/a/f00"))
	must(t, fs.Sync())
	got := make([]byte, len(data))
	if _, err := fs.Read("/b/g", 0, got); err != nil || string(got) != string(data) {
		t.Fatalf("/b/g after removing the first name: %q, %v", got, err)
	}
	rep, err := fs.Check()
	must(t, err)
	if !rep.Ok() {
		t.Fatalf("Check after Link and Remove: %v", rep.Problems)
	}
}

// TestNamespaceAllocs pins the namespace path's host cost in a warm
// directory: Create and a 1 KB Write of a new file, a Stat that fetches
// the inode again after DropCaches, and Remove allocate nothing per
// call — an in-core record lives in a page at its number, and a first
// block comes off the cache's free list or a chunk. The names are built
// before anything is measured.
func TestNamespaceAllocs(t *testing.T) {
	const runs = 100
	fs := newTestFS(t, 64<<20, smallConfig())
	must(t, fs.Mkdir("/warm"))
	names := make([]string, 2*(runs+1))
	for i := range names {
		names[i] = fmt.Sprintf("/warm/f%03d", i)
	}
	data := make([]byte, 1<<10)
	create := func(name string) {
		must(t, fs.Create(name))
		must(t, fs.Write(name, 0, data))
	}
	for _, name := range names[:runs+1] {
		create(name)
	}
	i := runs + 1
	if n := testing.AllocsPerRun(runs, func() { create(names[i]); i++ }); n != 0 {
		t.Errorf("Create + 1 KB Write in a warm directory: %v allocs per call, want 0", n)
	}
	i = 0
	if n := testing.AllocsPerRun(runs, func() {
		fs.DropCaches()
		_, err := fs.Stat(names[i])
		must(t, err)
		i++
	}); n != 0 {
		t.Errorf("Stat after DropCaches: %v allocs per call, want 0", n)
	}
	i = 0
	if n := testing.AllocsPerRun(runs, func() { must(t, fs.Remove(names[i])); i++ }); n != 0 {
		t.Errorf("Remove: %v allocs per call, want 0", n)
	}
}

// TestTruncateLeavesNoIndirectBehind: truncating a file whose indirect
// blocks were never logged must not make them. The walk that releases
// each dropped block used to create the missing indirect blocks, all
// holes, in the cache; the inode did not point at them, so pruning
// missed them, and the next segment write logged them past the file's
// end.
func TestTruncateLeavesNoIndirectBehind(t *testing.T) {
	for _, tc := range []struct {
		name      string
		blockSize int
		blocks    int
	}{
		{"single", 4096, layout.NDirect + 3},
		// In 512-byte blocks the double indirect range starts 140 blocks
		// in, so the whole file is far less dirty data than a segment and
		// no segment write comes before the truncate.
		{"double", 512, layout.NDirect + 512/layout.AddrSize + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.BlockSize = tc.blockSize
			fs := newTestFS(t, 64<<20, cfg)
			must(t, fs.Create("/f"))
			must(t, fs.Write("/f", 0, make([]byte, tc.blocks*tc.blockSize)))
			if fs.stats.UnitsWritten != 0 {
				t.Fatal("setup: a segment write came before the truncate")
			}
			must(t, fs.Truncate("/f", 0))
			must(t, fs.Sync())
			in, err := fs.getInode(dirIno(t, fs, "/f"))
			must(t, err)
			if in.Size != 0 || !in.Indirect.IsNil() || !in.DoubleIndirect.IsNil() {
				t.Errorf("/f after Truncate to 0 and Sync: size %d, Indirect %v, DoubleIndirect %v; want 0 and neither",
					in.Size, in.Indirect, in.DoubleIndirect)
			}
			rep, err := fs.Check()
			must(t, err)
			if !rep.Ok() {
				t.Errorf("Check: %q", rep.Problems)
			}
		})
	}
}
