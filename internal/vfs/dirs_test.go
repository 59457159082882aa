package vfs_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lfs/internal/cache"
	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/ffs"
	"lfs/internal/layout"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// The tests here pin the rule the directory layer follows (DESIGN.md
// §14) under both file systems that use it: a failed lookup's walk over
// the directory's blocks is the simulated model and always runs; only
// the host-side byte scan may be skipped, and only while the name cache
// provably holds every entry.

// dirFS is what the tests use of a file system beyond vfs.FileSystem;
// *core.FS and *ffs.FS both have it.
type dirFS interface {
	vfs.FileSystem
	Dirs() *vfs.Dirs
	Disk() *disk.Disk
	DropCaches()
	Crash()
}

// sizing is what a test asks of a fresh file system; zero fields keep
// the file system's defaults.
type sizing struct {
	capacity    int64
	inodes      int
	cacheBlocks int
	blockSize   int
}

// testFS is one mounted file system under test.
type testFS struct {
	dirFS
	// blockSize is the file-system block, dirBlockSize the directory
	// block the file system passes to vfs.NewDirs.
	blockSize, dirBlockSize int
	// snap reads the simulated clock and the CPU, cache and disk
	// counters.
	snap func() (now sim.Time, instr int64, c cache.Stats, d disk.Stats)
	// mount mounts the (crashed) disk again with the same configuration.
	mount func(t testing.TB) *testFS
	// check runs the file system's checker (LFS's Check, FFS's fsck
	// after a Sync) and returns the problems it reports.
	check func(t testing.TB) []string
}

// counters renders everything snap reads.
func (fs *testFS) counters() string {
	now, instr, c, d := fs.snap()
	return fmt.Sprintf("now=%v instr=%d cache=%+v disk=%+v", now, instr, c, d)
}

// hits is the cache-hit counter alone.
func (fs *testFS) hits() int64 {
	_, _, c, _ := fs.snap()
	return c.Hits
}

// instr is the instruction counter alone.
func (fs *testFS) instr() int64 {
	_, instr, _, _ := fs.snap()
	return instr
}

// fileSystems is the table every test here runs over. otherHits is how
// many block cache hits a create in a long-lived directory pays besides
// the existence check's one per directory block: in LFS the insert's
// block; in FFS that plus the root's and the directory's inode-table
// blocks on the path walk, the inode bitmap, the new inode's table
// block, and the directory's again for its mtime.
var fileSystems = []struct {
	name      string
	open      func(t testing.TB, s sizing) *testFS
	otherHits int64
}{
	{"lfs", openLFS, 1},
	{"ffs", openFFS, 6},
}

func openLFS(t testing.TB, s sizing) *testFS {
	t.Helper()
	cfg := core.DefaultConfig()
	if s.inodes > 0 {
		cfg.MaxInodes = s.inodes
	}
	if s.cacheBlocks > 0 {
		cfg.CacheBlocks = s.cacheBlocks
	}
	if s.blockSize > 0 {
		cfg.BlockSize = s.blockSize
	}
	d := disk.NewMem(s.capacity, sim.NewClock())
	must(t, core.Format(d, cfg))
	var mount func(t testing.TB) *testFS
	mount = func(t testing.TB) *testFS {
		t.Helper()
		fs, err := core.Mount(d, cfg)
		must(t, err)
		return &testFS{
			dirFS: fs, blockSize: cfg.BlockSize, dirBlockSize: cfg.BlockSize, mount: mount,
			snap: func() (sim.Time, int64, cache.Stats, disk.Stats) {
				s := fs.StatsSnapshot()
				return s.Time, s.CPUInstructions, s.Cache, s.Disk
			},
			check: func(t testing.TB) []string {
				rep, err := fs.Check()
				must(t, err)
				return rep.Problems
			},
		}
	}
	return mount(t)
}

func openFFS(t testing.TB, s sizing) *testFS {
	t.Helper()
	cfg := ffs.DefaultConfig()
	if s.blockSize > 0 {
		cfg.BlockSize = s.blockSize
	}
	groups := int(s.capacity / int64(cfg.BlocksPerGroup*cfg.BlockSize))
	if perGroup := (s.inodes/groups + 8) &^ 7; perGroup > cfg.InodesPerGroup {
		cfg.InodesPerGroup = perGroup
	}
	if s.cacheBlocks > 0 {
		cfg.CacheBlocks = s.cacheBlocks
	}
	d := disk.NewMem(s.capacity, sim.NewClock())
	must(t, ffs.Format(d, cfg))
	var mount func(t testing.TB) *testFS
	mount = func(t testing.TB) *testFS {
		t.Helper()
		fs, err := ffs.Mount(d, cfg)
		must(t, err)
		return &testFS{
			dirFS: fs, blockSize: cfg.BlockSize, dirBlockSize: disk.SectorSize, mount: mount,
			snap: func() (sim.Time, int64, cache.Stats, disk.Stats) {
				s := fs.StatsSnapshot()
				return s.Time, s.CPUInstructions, s.Cache, s.Disk
			},
			check: func(t testing.TB) []string {
				must(t, fs.Sync())
				rep, err := ffs.Fsck(d, cfg)
				must(t, err)
				return rep.Problems
			},
		}
	}
	return mount(t)
}

// remount syncs, crashes and mounts again: the name cache starts empty.
func (fs *testFS) remount(t *testing.T) *testFS {
	t.Helper()
	must(t, fs.Sync())
	fs.Crash()
	return fs.mount(t)
}

// must fails the test on a non-nil error.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// dirIno resolves a directory path to its inode number.
func dirIno(t *testing.T, fs *testFS, path string) layout.Ino {
	t.Helper()
	fi, err := fs.Stat(path)
	must(t, err)
	return fi.Ino
}

// fillDir creates n files f000000.. under dir.
func fillDir(t testing.TB, fs *testFS, dir string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		must(t, fs.Create(fmt.Sprintf("%s/f%06d", dir, i)))
	}
}

// namesPerBlock is how many of fillDir's names one file-system block
// holds: as many as fit in one directory block, in each of its
// directory blocks.
func namesPerBlock(t *testing.T, fs *testFS) int {
	t.Helper()
	blk := make([]byte, fs.dirBlockSize)
	layout.InitDirBlock(blk)
	for n := 0; ; n++ {
		ok, err := layout.DirBlockInsert(blk, layout.DirEntry{Ino: 1, Name: fmt.Sprintf("f%06d", n)})
		must(t, err)
		if !ok {
			return n * fs.blockSize / fs.dirBlockSize
		}
	}
}

// checkNameCache verifies what Dirs.Complete relies on, for each of
// the given directories: a learned entry count is the directory's real
// entry count, and every cached name is an entry of its directory with
// the right inode.
func checkNameCache(t *testing.T, fs *testFS, dirs ...string) {
	t.Helper()
	for _, dir := range dirs {
		ents, err := fs.ReadDir(dir)
		must(t, err)
		must(t, fs.Dirs().Check(dirIno(t, fs, dir), ents))
	}
}

// wantExist requires Create of path to fail with ErrExist.
func wantExist(t *testing.T, fs *testFS, path string) {
	t.Helper()
	if err := fs.Create(path); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("Create(%q) of an existing name: %v, want ErrExist", path, err)
	}
}

// TestCreateWalksEveryDirectoryBlock: the N-th create in a directory
// pays one block fetch — a cache hit and a BlockSetup charge — per
// directory block for the existence check, plus one for the insert,
// even though the complete name cache lets it skip reading them.
func TestCreateWalksEveryDirectoryBlock(t *testing.T) {
	for _, row := range fileSystems {
		t.Run(row.name, func(t *testing.T) {
			fs := row.open(t, sizing{capacity: 64 << 20, inodes: 4096}) // seven 4 KB directory blocks hold ~2200 of these names
			must(t, fs.Mkdir("/d"))
			d := dirIno(t, fs, "/d")
			perBlock := namesPerBlock(t, fs)

			type sample struct{ blocks, hits, instr int64 }
			next := 0
			create := func() {
				must(t, fs.Create(fmt.Sprintf("/d/f%06d", next)))
				next++
			}
			// measure grows /d to the given block count with room left in
			// the last block, then times one create that lands there.
			measure := func(blocks int) sample {
				for next < (blocks-1)*perBlock+2 {
					create()
				}
				if !fs.Dirs().Complete(d) {
					t.Fatal("name cache of a directory built from empty is not complete")
				}
				hits, instr := fs.hits(), fs.instr()
				create()
				if next > blocks*perBlock {
					t.Fatal("measured create grew the directory")
				}
				return sample{int64(blocks), fs.hits() - hits, fs.instr() - instr}
			}
			small, large := measure(3), measure(7)
			for _, s := range []sample{small, large} {
				if s.hits != s.blocks+row.otherHits {
					t.Errorf("create in a %d-block directory: %d cache hits, want %d (every block, then the insert and the file system's %d others)",
						s.blocks, s.hits, s.blocks+row.otherHits, row.otherHits-1)
				}
			}
			wantInstr := (large.blocks - small.blocks) * sim.CostBlockSetup
			if got := large.instr - small.instr; got != wantInstr {
				t.Errorf("create in %d blocks cost %d more instructions than in %d, want %d (BlockSetup per extra block)",
					large.blocks, got, small.blocks, wantInstr)
			}
		})
	}
}

// image hashes the file system's whole disk image.
func (fs *testFS) image(t *testing.T) [sha256.Size]byte {
	t.Helper()
	store := fs.Disk().Store()
	buf := make([]byte, store.Size())
	must(t, store.ReadAt(buf, 0))
	return sha256.Sum256(buf)
}

// TestNegativeFastPathLeavesTheModelAlone runs one script on two file
// systems, forgetting every learned entry count before each operation
// on the second so its lookups always scan, and requires the same
// simulated clock, CPU, cache and disk counters from both.
func TestNegativeFastPathLeavesTheModelAlone(t *testing.T) {
	sameAsForced(t, func(d *vfs.Dirs) { d.ForgetCounts() })
}

// TestValidatedBlocksLeaveTheModelAlone: the same script, with every
// cached block's recorded end forgotten too before each operation on the
// second file system — so every insert and remove validates its
// directory block in full, as before blocks recorded their end — gives
// the same counters and the same image.
func TestValidatedBlocksLeaveTheModelAlone(t *testing.T) {
	forgot := 0
	sameAsForced(t, func(d *vfs.Dirs) {
		d.ForgetCounts()
		forgot += d.ForgetValidation()
	})
	if forgot == 0 {
		t.Fatal("no cached block ever recorded its end: the runs do not differ")
	}
}

// sameAsForced runs one script on two file systems of each kind, calling
// force on the second's directory layer after every operation, and
// requires the same simulated clock, CPU, cache and disk counters from
// both, and the same disk image after the final Sync. It runs with 16
// cache blocks, so directory blocks get evicted and re-read, and with
// the default cache, where they stay.
func sameAsForced(t *testing.T, force func(*vfs.Dirs)) {
	for _, row := range fileSystems {
		t.Run(row.name, func(t *testing.T) {
			run := func(cacheBlocks int, forget bool) (string, [sha256.Size]byte) {
				fs := row.open(t, sizing{capacity: 64 << 20, inodes: 1024, cacheBlocks: cacheBlocks})
				step := func(err error) {
					t.Helper()
					must(t, err)
					if forget {
						force(fs.Dirs())
					}
				}
				step(fs.Mkdir("/d"))
				for i := 0; i < 900; i++ {
					step(fs.Create(fmt.Sprintf("/d/f%06d", i)))
					if i%3 == 0 {
						step(fs.Write(fmt.Sprintf("/d/f%06d", i), 0, make([]byte, 1024)))
					}
				}
				if complete := fs.Dirs().Complete(dirIno(t, fs, "/d")); complete == forget {
					t.Fatalf("forget=%v but Complete=%v: the two runs do not differ", forget, complete)
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
				return fs.counters(), fs.image(t)
			}
			for _, blocks := range []int{16, 0} {
				fast, fastImage := run(blocks, false)
				scan, scanImage := run(blocks, true)
				if fast != scan {
					t.Fatalf("cache of %d blocks: simulated results depend on the host fast path:\nfast %s\nscan %s", blocks, fast, scan)
				}
				if fastImage != scanImage {
					t.Fatalf("cache of %d blocks: the disk images differ: the fast path wrote other bytes", blocks)
				}
			}
		})
	}
}

// TestCorruptBlockFailsFirstUse: a directory block corrupted on disk (an
// entry's name length zeroed), evicted and read back, fails the first
// insert and remove on it — though the name cache is complete and the
// evicted copy had recorded its end — and, after a remount, the first
// lookup that scans it, each with the codec's error for the block.
func TestCorruptBlockFailsFirstUse(t *testing.T) {
	for _, row := range fileSystems {
		t.Run(row.name, func(t *testing.T) {
			fs := row.open(t, sizing{capacity: 64 << 20, inodes: 1024})
			perBlock := namesPerBlock(t, fs)
			name := func(i int) string { return fmt.Sprintf("/d/f%06d", perBlock+i) } // the i-th entry of block 1's first directory block
			must(t, fs.Mkdir("/d"))
			fillDir(t, fs, "/d", perBlock+10)
			must(t, fs.Remove(name(9))) // block 1 records its end
			must(t, fs.Sync())
			// LFS's roll-forward holds each unit to its data checksum and
			// would stop short of the damaged one: put it behind a
			// checkpoint, so the remount below reads it as it is.
			if lfs, ok := fs.dirFS.(interface{ Checkpoint() error }); ok {
				must(t, lfs.Checkpoint())
			}
			zeroNameLength(t, fs, name(5)[len("/d/"):])
			want := "layout: directory entry 5 has bad name length 0"
			wantBad := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: %v, want an error saying %q", what, err, want)
				}
			}
			fs.DropCaches()
			if !fs.Dirs().Complete(dirIno(t, fs, "/d")) {
				t.Fatal("the name cache of a directory built from empty is not complete")
			}
			wantBad("Create", fs.Create("/d/new"))
			fs.DropCaches()
			wantBad("Remove", fs.Remove(name(2)))
			fs = fs.remount(t)
			_, err := fs.Stat(name(7))
			wantBad("Stat after a remount", err)
		})
	}
}

// zeroNameLength zeroes, in the disk image, the name length of every
// directory entry called name.
func zeroNameLength(t *testing.T, fs *testFS, name string) {
	t.Helper()
	store := fs.Disk().Store()
	img := make([]byte, store.Size())
	must(t, store.ReadAt(img, 0))
	found := 0
	for off := 0; ; found++ {
		i := bytes.Index(img[off:], []byte(name))
		if i < 0 {
			break
		}
		off += i
		must(t, store.WriteAt([]byte{0, 0}, int64(off-2)))
		off += len(name)
	}
	if found == 0 {
		t.Fatalf("no entry called %q on disk", name)
	}
}

// TestNegativeLookupScansWhenNameCacheIncomplete: wherever the name
// cache cannot be proved complete the byte scan runs, so a name that
// exists only on disk is still found.
func TestNegativeLookupScansWhenNameCacheIncomplete(t *testing.T) {
	small := sizing{capacity: 64 << 20, inodes: 1024}
	// each runs one case on every file system.
	each := func(name string, body func(t *testing.T, open func(sizing) *testFS)) {
		t.Run(name, func(t *testing.T) {
			for _, row := range fileSystems {
				t.Run(row.name, func(t *testing.T) {
					body(t, func(s sizing) *testFS { return row.open(t, s) })
				})
			}
		})
	}

	each("crash and mount", func(t *testing.T, open func(sizing) *testFS) {
		fs := open(small)
		must(t, fs.Mkdir("/d"))
		fillDir(t, fs, "/d", 700)
		fs = fs.remount(t)
		d := dirIno(t, fs, "/d")
		if fs.Dirs().Complete(d) {
			t.Fatal("fresh mount claims a complete name cache")
		}
		wantExist(t, fs, "/d/f000000")
		wantExist(t, fs, "/d/f000699")
		checkNameCache(t, fs, "/", "/d")
	})

	each("lookups populate part of the cache", func(t *testing.T, open func(sizing) *testFS) {
		fs := open(small)
		must(t, fs.Mkdir("/d"))
		fillDir(t, fs, "/d", 700)
		fs = fs.remount(t)
		d := dirIno(t, fs, "/d")
		for _, i := range []int{3, 350, 698} {
			_, err := fs.Stat(fmt.Sprintf("/d/f%06d", i))
			must(t, err)
		}
		must(t, fs.Create("/d/new")) // a full negative scan: the count is learned here
		if n, ok := fs.Dirs().EntryCount(d); !ok || n != 701 {
			t.Fatalf("entry count after a full negative scan = %d (learned=%v), want 701", n, ok)
		}
		if fs.Dirs().Complete(d) {
			t.Fatalf("name cache holds %d of 701 entries and claims to be complete", fs.Dirs().CachedNames(d))
		}
		wantExist(t, fs, "/d/f000100") // on disk, not in the name cache
		must(t, fs.Remove("/d/f000200"))
		must(t, fs.Create("/d/f000200"))
		if _, err := fs.Stat("/d/absent"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("Stat of an absent name: %v", err)
		}
		checkNameCache(t, fs, "/", "/d")
	})

	each("past the name cache limit", func(t *testing.T, open func(sizing) *testFS) {
		const limit = vfs.NameCacheDirLimit
		fs := open(sizing{capacity: 128 << 20, inodes: limit + 1024})
		must(t, fs.Mkdir("/d"))
		d := dirIno(t, fs, "/d")
		fillDir(t, fs, "/d", limit)
		if !fs.Dirs().Complete(d) {
			t.Fatal("name cache at its limit, holding every entry, is not complete")
		}
		for i := limit; i < limit+8; i++ {
			must(t, fs.Create(fmt.Sprintf("/d/f%06d", i)))
		}
		if fs.Dirs().Complete(d) || fs.Dirs().CachedNames(d) != limit {
			t.Fatalf("past the limit: %d names cached, complete=%v", fs.Dirs().CachedNames(d), fs.Dirs().Complete(d))
		}
		last := fmt.Sprintf("/d/f%06d", limit+7)
		wantExist(t, fs, last) // never cached: the cache was full
		// Removing cached names leaves the uncached ones still uncounted
		// for: the cache stays a strict subset.
		must(t, fs.Remove("/d/f000000"))
		must(t, fs.Remove("/d/f000001"))
		wantExist(t, fs, last)
		if n, _ := fs.Dirs().EntryCount(d); n != limit+8-2 {
			t.Fatalf("entry count %d, want %d", n, limit+8-2)
		}
	})

	each("rename link rmdir", func(t *testing.T, open func(sizing) *testFS) {
		for _, remounted := range []bool{false, true} {
			fs := open(small)
			for _, dir := range []string{"/x", "/y", "/gone"} {
				must(t, fs.Mkdir(dir))
			}
			fillDir(t, fs, "/x", 400)
			fillDir(t, fs, "/y", 5)
			fillDir(t, fs, "/gone", 2)
			if remounted {
				fs = fs.remount(t)
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
			checkNameCache(t, fs, "/", "/x", "/y", "/gone")

			// rmdir, then a new directory on the reused inode number: none
			// of the old directory's names or its count may survive. FFS
			// spreads new directories over its cylinder groups, so it takes
			// a few to come back round to the freed number.
			gone := dirIno(t, fs, "/gone")
			must(t, fs.Remove("/gone/f000000"))
			must(t, fs.Remove("/gone/f000001"))
			must(t, fs.Remove("/gone"))
			again := ""
			for i := 0; i < 64 && again == ""; i++ {
				dir := fmt.Sprintf("/again%d", i)
				must(t, fs.Mkdir(dir))
				if dirIno(t, fs, dir) == gone {
					again = dir
				}
			}
			if again == "" {
				t.Fatalf("64 new directories and none reused the freed inode %d", gone)
			}
			must(t, fs.Create(again+"/f000000"))
			wantExist(t, fs, again+"/f000000")
			must(t, fs.Create(again+"/f000001"))
			checkNameCache(t, fs, "/", "/x", "/y", again)
			if ents, err := fs.ReadDir(again); err != nil || len(ents) != 2 {
				t.Fatalf("ReadDir(%s) = %v, %v; want 2 entries", again, ents, err)
			}
		}
	})
}

// BenchmarkCreateInLargeDir is the small-file benchmark's hot spot in
// isolation: one create (and the remove that undoes it) in a directory
// of 10 000 entries, name cache complete, every directory block cached.
func BenchmarkCreateInLargeDir(b *testing.B) {
	for _, row := range fileSystems {
		b.Run(row.name, func(b *testing.B) {
			fs := row.open(b, sizing{capacity: 256 << 20})
			must(b, fs.Mkdir("/d"))
			fillDir(b, fs, "/d", 10000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				must(b, fs.Create("/d/one-more"))
				must(b, fs.Remove("/d/one-more"))
			}
		})
	}
}
