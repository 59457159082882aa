package core

import (
	"errors"
	"fmt"
	"testing"

	"lfs/internal/layout"
	"lfs/internal/vfs"
)

// The tests here pin the rule the directory path follows (DESIGN.md
// §14): a failed lookup's walk over the directory's blocks is the
// simulated model and always runs; only the host-side byte scan may be
// skipped, and only while the name cache provably holds every entry.

// must fails the test on a non-nil error.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// dirIno resolves a directory path to its inode number.
func dirIno(t *testing.T, fs *FS, path string) layout.Ino {
	t.Helper()
	fi, err := fs.Stat(path)
	must(t, err)
	return fi.Ino
}

// fillDir creates n files f000000.. under dir.
func fillDir(t testing.TB, fs *FS, dir string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		must(t, fs.Create(fmt.Sprintf("%s/f%06d", dir, i)))
	}
}

// checkNameCache verifies what nameCacheComplete relies on: every
// learned entry count is the directory's real entry count, and every
// cached name is an entry of its directory with the right inode.
func checkNameCache(t *testing.T, fs *FS) {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	list := func(dir layout.Ino) map[string]layout.Ino {
		in, err := fs.getInode(dir)
		must(t, err)
		ents, err := fs.dirEntries(in)
		must(t, err)
		byName := make(map[string]layout.Ino, len(ents))
		for _, e := range ents {
			byName[e.Name] = e.Ino
		}
		return byName
	}
	for dir, n := range fs.entryCount {
		if got := len(list(dir)); got != n {
			t.Fatalf("directory %d: learned entry count %d, directory holds %d", dir, n, got)
		}
	}
	for dir, cached := range fs.names {
		ents := list(dir)
		for name, e := range cached {
			if ino, ok := ents[name]; !ok || ino != e.ino {
				t.Fatalf("directory %d: name cache has %q→%d, directory has %d (present=%v)", dir, name, e.ino, ino, ok)
			}
		}
	}
}

// wantExist requires Create of path to fail with ErrExist.
func wantExist(t *testing.T, fs *FS, path string) {
	t.Helper()
	if err := fs.Create(path); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("Create(%q) of an existing name: %v, want ErrExist", path, err)
	}
}

// TestCreateWalksEveryDirectoryBlock: the N-th create in a directory
// pays one getDataBlock — a cache hit and a BlockSetup charge — per
// directory block for the existence check, plus one for the insert,
// even though the complete name cache lets it skip reading them.
func TestCreateWalksEveryDirectoryBlock(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxInodes = 4096 // seven directory blocks hold ~2200 of these names
	fs := newTestFS(t, 64<<20, cfg)
	must(t, fs.Mkdir("/d"))
	d := dirIno(t, fs, "/d")
	dir, err := fs.getInode(d)
	must(t, err)

	type sample struct{ blocks, hits, instr int64 }
	next := 0
	// measure grows /d to at least the given block count, then times one
	// create that lands in the last block.
	measure := func(blocks int64) sample {
		for fs.dirBlocks(dir) < blocks {
			must(t, fs.Create(fmt.Sprintf("/d/f%06d", next)))
			next++
		}
		must(t, fs.Create(fmt.Sprintf("/d/f%06d", next))) // the new block now has room for more
		next++
		if !fs.nameCacheComplete(d) {
			t.Fatal("name cache of a directory built from empty is not complete")
		}
		before := fs.dirBlocks(dir)
		hits, instr := fs.bc.Stats().Hits, fs.cpu.Instructions()
		must(t, fs.Create(fmt.Sprintf("/d/f%06d", next)))
		next++
		if fs.dirBlocks(dir) != before {
			t.Fatal("measured create grew the directory")
		}
		return sample{before, fs.bc.Stats().Hits - hits, fs.cpu.Instructions() - instr}
	}
	small, large := measure(3), measure(7)
	for _, s := range []sample{small, large} {
		if s.hits != s.blocks+1 {
			t.Errorf("create in a %d-block directory: %d cache hits, want %d (every block, then the insert)", s.blocks, s.hits, s.blocks+1)
		}
	}
	wantInstr := (large.blocks - small.blocks) * fs.cfg.Costs.BlockSetup
	if got := large.instr - small.instr; got != wantInstr {
		t.Errorf("create in %d blocks cost %d more instructions than in %d, want %d (BlockSetup per extra block)",
			large.blocks, got, small.blocks, wantInstr)
	}
}

// TestNegativeFastPathLeavesTheModelAlone runs one script on two file
// systems, forgetting every learned entry count before each operation
// on the second so its lookups always scan, and requires the same
// simulated clock, CPU, cache and disk counters from both.
func TestNegativeFastPathLeavesTheModelAlone(t *testing.T) {
	run := func(forget bool) string {
		cfg := smallConfig()
		cfg.CacheBlocks = 16 // directory blocks get evicted and re-read
		fs := newTestFS(t, 64<<20, cfg)
		step := func(err error) {
			t.Helper()
			must(t, err)
			if forget {
				fs.entryCount = map[layout.Ino]int{}
			}
		}
		step(fs.Mkdir("/d"))
		for i := 0; i < 900; i++ {
			step(fs.Create(fmt.Sprintf("/d/f%06d", i)))
			if i%3 == 0 {
				step(fs.Write(fmt.Sprintf("/d/f%06d", i), 0, make([]byte, 1024)))
			}
		}
		if complete := fs.nameCacheComplete(dirIno(t, fs, "/d")); complete == forget {
			t.Fatalf("forget=%v but nameCacheComplete=%v: the two runs do not differ", forget, complete)
		}
		for i := 0; i < 900; i += 2 {
			step(fs.Remove(fmt.Sprintf("/d/f%06d", i)))
		}
		for i := 0; i < 300; i++ {
			step(fs.Create(fmt.Sprintf("/d/g%06d", i)))
		}
		if _, err := fs.Stat("/d/absent"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("Stat of an absent name: %v", err)
		}
		step(fs.Sync())
		return fmt.Sprintf("now=%v instr=%d cache=%+v disk=%+v", fs.clock.Now(), fs.cpu.Instructions(), fs.bc.Stats(), fs.d.Stats())
	}
	if fast, scan := run(false), run(true); fast != scan {
		t.Fatalf("simulated results depend on the host fast path:\nfast %s\nscan %s", fast, scan)
	}
}

// TestNegativeLookupScansWhenNameCacheIncomplete: wherever the name
// cache cannot be proved complete the byte scan runs, so a name that
// exists only on disk is still found.
func TestNegativeLookupScansWhenNameCacheIncomplete(t *testing.T) {
	cfg := smallConfig()
	remount := func(t *testing.T, fs *FS) *FS {
		t.Helper()
		must(t, fs.Sync())
		fs.Crash()
		fs2, err := Mount(fs.d, cfg)
		must(t, err)
		return fs2
	}

	t.Run("crash and mount", func(t *testing.T) {
		fs := newTestFS(t, 64<<20, cfg)
		must(t, fs.Mkdir("/d"))
		fillDir(t, fs, "/d", 700)
		fs = remount(t, fs)
		d := dirIno(t, fs, "/d")
		if fs.nameCacheComplete(d) {
			t.Fatal("fresh mount claims a complete name cache")
		}
		wantExist(t, fs, "/d/f000000")
		wantExist(t, fs, "/d/f000699")
		checkNameCache(t, fs)
	})

	t.Run("lookups populate part of the cache", func(t *testing.T) {
		fs := newTestFS(t, 64<<20, cfg)
		must(t, fs.Mkdir("/d"))
		fillDir(t, fs, "/d", 700)
		fs = remount(t, fs)
		d := dirIno(t, fs, "/d")
		for _, i := range []int{3, 350, 698} {
			_, err := fs.Stat(fmt.Sprintf("/d/f%06d", i))
			must(t, err)
		}
		must(t, fs.Create("/d/new")) // a full negative scan: the count is learned here
		if n, ok := fs.entryCount[d]; !ok || n != 701 {
			t.Fatalf("entry count after a full negative scan = %d (learned=%v), want 701", n, ok)
		}
		if fs.nameCacheComplete(d) {
			t.Fatalf("name cache holds %d of 701 entries and claims to be complete", len(fs.names[d]))
		}
		wantExist(t, fs, "/d/f000100") // on disk, not in the name cache
		must(t, fs.Remove("/d/f000200"))
		must(t, fs.Create("/d/f000200"))
		if _, err := fs.Stat("/d/absent"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("Stat of an absent name: %v", err)
		}
		checkNameCache(t, fs)
	})

	t.Run("past the name cache limit", func(t *testing.T) {
		big := cfg
		big.MaxInodes = nameCacheDirLimit + 1024
		fs := newTestFS(t, 128<<20, big)
		must(t, fs.Mkdir("/d"))
		d := dirIno(t, fs, "/d")
		fillDir(t, fs, "/d", nameCacheDirLimit)
		if !fs.nameCacheComplete(d) {
			t.Fatal("name cache at its limit, holding every entry, is not complete")
		}
		for i := nameCacheDirLimit; i < nameCacheDirLimit+8; i++ {
			must(t, fs.Create(fmt.Sprintf("/d/f%06d", i)))
		}
		if fs.nameCacheComplete(d) || len(fs.names[d]) != nameCacheDirLimit {
			t.Fatalf("past the limit: %d names cached, complete=%v", len(fs.names[d]), fs.nameCacheComplete(d))
		}
		last := fmt.Sprintf("/d/f%06d", nameCacheDirLimit+7)
		wantExist(t, fs, last) // never cached: the cache was full
		// Removing cached names leaves the uncached ones still uncounted
		// for: the cache stays a strict subset.
		must(t, fs.Remove("/d/f000000"))
		must(t, fs.Remove("/d/f000001"))
		wantExist(t, fs, last)
		if n := fs.entryCount[d]; n != nameCacheDirLimit+8-2 {
			t.Fatalf("entry count %d, want %d", n, nameCacheDirLimit+8-2)
		}
	})

	t.Run("rename link rmdir", func(t *testing.T) {
		for _, remounted := range []bool{false, true} {
			fs := newTestFS(t, 64<<20, cfg)
			for _, dir := range []string{"/x", "/y", "/gone"} {
				must(t, fs.Mkdir(dir))
			}
			fillDir(t, fs, "/x", 400)
			fillDir(t, fs, "/y", 5)
			fillDir(t, fs, "/gone", 2)
			if remounted {
				fs = remount(t, fs)
				must(t, fs.Create("/x/learn")) // count /x, cache one name of it
			}
			must(t, fs.Rename("/x/f000007", "/y/moved"))
			wantExist(t, fs, "/y/moved")
			must(t, fs.Create("/x/f000007")) // the old name is free again
			must(t, fs.Rename("/x/f000008", "/x/renamed"))
			wantExist(t, fs, "/x/renamed")
			must(t, fs.Link("/x/f000009", "/y/linked"))
			wantExist(t, fs, "/y/linked")
			wantExist(t, fs, "/x/f000009")
			must(t, fs.Remove("/y/linked"))
			must(t, fs.Create("/y/linked"))
			checkNameCache(t, fs)

			// rmdir, then a new directory on the reused inode number: none
			// of the old directory's names or its count may survive.
			gone := dirIno(t, fs, "/gone")
			must(t, fs.Remove("/gone/f000000"))
			must(t, fs.Remove("/gone/f000001"))
			must(t, fs.Remove("/gone"))
			must(t, fs.Mkdir("/again"))
			if got := dirIno(t, fs, "/again"); got != gone {
				t.Fatalf("new directory got inode %d, expected the freed %d to be reused", got, gone)
			}
			must(t, fs.Create("/again/f000000"))
			wantExist(t, fs, "/again/f000000")
			must(t, fs.Create("/again/f000001"))
			checkNameCache(t, fs)
			if ents, err := fs.ReadDir("/again"); err != nil || len(ents) != 2 {
				t.Fatalf("ReadDir(/again) = %v, %v; want 2 entries", ents, err)
			}
		}
	})
}

// TestUnlinkForgetsReadAheadPosition: a file created on a reused inode
// number must not inherit the unlinked file's last-read block, which
// made its first read at old+1 look sequential and read ahead.
func TestUnlinkForgetsReadAheadPosition(t *testing.T) {
	fs := newTestFS(t, 64<<20, smallConfig())
	bs := fs.cfg.BlockSize
	const k = 3
	must(t, fs.Create("/old"))
	must(t, fs.Write("/old", 0, make([]byte, (k+1)*bs)))
	old := dirIno(t, fs, "/old")
	buf := make([]byte, bs)
	for lbn := 0; lbn <= k; lbn++ {
		_, err := fs.Read("/old", int64(lbn*bs), buf)
		must(t, err)
	}
	must(t, fs.Remove("/old"))
	if _, leaked := fs.lastRead[old]; leaked {
		t.Fatalf("lastRead still has an entry for unlinked inode %d", old)
	}

	must(t, fs.Create("/new"))
	if got := dirIno(t, fs, "/new"); got != old {
		t.Fatalf("new file got inode %d, expected the freed %d to be reused", got, old)
	}
	must(t, fs.Write("/new", 0, make([]byte, 4*k*bs)))
	must(t, fs.Sync())
	fs.DropCaches()
	_, err := fs.Read("/new", int64((k+1)*bs), buf)
	must(t, err)
	if fs.bc.Peek(dataKey(old, k+1)) == nil {
		t.Fatal("the block read is not cached")
	}
	if fs.bc.Peek(dataKey(old, k+2)) != nil {
		t.Fatalf("first read of a new file at block %d read ahead: it inherited the unlinked file's position", k+1)
	}
}

// BenchmarkCreateInLargeDir is the small-file benchmark's hot spot in
// isolation: one create (and the remove that undoes it) in a directory
// of 10 000 entries, name cache complete, every directory block cached.
func BenchmarkCreateInLargeDir(b *testing.B) {
	fs := newTestFS(b, 256<<20, DefaultConfig())
	must(b, fs.Mkdir("/d"))
	fillDir(b, fs, "/d", 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(b, fs.Create("/d/one-more"))
		must(b, fs.Remove("/d/one-more"))
	}
}
