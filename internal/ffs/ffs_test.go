package ffs_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/experiments"
	"lfs/internal/ffs"
	"lfs/internal/fstest"
	"lfs/internal/layout"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// newFS formats and mounts an FFS on a fresh memory disk.
func newFS(t *testing.T, capacity int64) *ffs.FS {
	t.Helper()
	d := disk.NewMem(capacity, sim.NewClock())
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFFSConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem {
		return newFS(t, 64<<20)
	})
}

// TestFFSHasNoFsync: clients detect a per-file fsync by type assertion
// and fall back to Sync without one, which is FFS's behaviour in every
// client sweep. A FsyncFile promoted into FFS from a shared front end
// would silently change it.
func TestFFSHasNoFsync(t *testing.T) {
	var fs vfs.FileSystem = newFS(t, 16<<20)
	if _, ok := fs.(interface{ FsyncFile(string) error }); ok {
		t.Fatal("*ffs.FS has a FsyncFile method")
	}
}

func TestFFSModelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fstest.RunEquivalence(t, func(t *testing.T) vfs.FileSystem {
				return newFS(t, 64<<20)
			}, seed, 400)
		})
	}
}

// TestFFSDurabilityEquivalence sweeps generated streams at the default
// configuration: the recording pass ends with a clean unmount whose
// remount must hold the model's tree, and every lost write must
// recover.
func TestFFSDurabilityEquivalence(t *testing.T) {
	for seed := int64(20); seed <= 22; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sweepFFS(t, ffs.DefaultConfig(), fstest.RandomWorkload(seed, 300))
		})
	}
}

// sweepFFS cuts power at every write of workload on a 16 MB FFS with
// cfg, once losing the fatal write whole and once tearing it at a
// sector boundary, and reports every crash point that does not recover.
func sweepFFS(t *testing.T, cfg ffs.Config, workload []fstest.Op) {
	t.Helper()
	for _, torn := range []bool{false, true} {
		rep, err := fstest.RunCrashPoints(fstest.CrashConfig{
			Target:       experiments.FFSTarget(cfg),
			DiskCapacity: 16 << 20,
			Workload:     workload,
			Torn:         torn,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Points == 0 {
			t.Error("workload produced no crash points")
		}
		t.Logf("torn=%v: %d points of %d writes, %d failures", torn, rep.Points, rep.TotalWrites, len(rep.Failures))
		for i, f := range rep.Failures {
			if i >= 20 {
				t.Errorf("... and %d more failures", len(rep.Failures)-i)
				break
			}
			t.Error(f.String())
		}
	}
}

func TestFormatValidation(t *testing.T) {
	d := disk.NewMem(8<<20, sim.NewClock())
	bad := ffs.DefaultConfig()
	bad.BlockSize = 1000
	if err := ffs.Format(d, bad); err == nil {
		t.Fatal("bad block size accepted")
	}
	tiny := disk.NewMem(1<<20, sim.NewClock())
	if err := ffs.Format(tiny, ffs.DefaultConfig()); err == nil {
		t.Fatal("disk smaller than one group accepted")
	}
}

func TestMountRejectsUnformattedDisk(t *testing.T) {
	d := disk.NewMem(16<<20, sim.NewClock())
	if _, err := ffs.Mount(d, ffs.DefaultConfig()); err == nil {
		t.Fatal("mounted an unformatted disk")
	}
}

func TestMountRejectsMismatchedBlockSize(t *testing.T) {
	d := disk.NewMem(16<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.BlockSize = 4096
	cfg.BlocksPerGroup = 512
	if _, err := ffs.Mount(d, cfg); err == nil {
		t.Fatal("mounted with the wrong block size")
	}
}

// countSync counts synchronous writes recorded by the tracer.
type syncCounter struct {
	syncWrites  int
	totalWrites int
	events      []disk.Event
}

func (c *syncCounter) Record(ev disk.Event) {
	if ev.Kind == disk.OpWrite {
		c.totalWrites++
		if ev.Sync {
			c.syncWrites++
		}
	}
	c.events = append(c.events, ev)
}

// TestCreateIsSynchronous verifies the baseline's defining behaviour:
// each small-file creation performs synchronous disk writes (the inode
// and the directory block), which is what Figure 1 of the paper shows.
func TestCreateIsSynchronous(t *testing.T) {
	fs := newFS(t, 64<<20)
	if err := fs.Mkdir("/dir1"); err != nil {
		t.Fatal(err)
	}
	var c syncCounter
	fs.Disk().SetTracer(&c)
	before := fs.Clock().Now()
	if err := fs.Create("/dir1/file1"); err != nil {
		t.Fatal(err)
	}
	if c.syncWrites < 2 {
		t.Fatalf("creat performed %d sync writes, want >= 2 (inode + dir data)", c.syncWrites)
	}
	// The caller's clock advanced by at least two random-write
	// latencies: creation speed is coupled to disk latency.
	elapsed := fs.Clock().Now().Sub(before)
	if elapsed < 20*sim.Millisecond {
		t.Fatalf("creat took %v of simulated time, want >= 20ms (synchronous random writes)", elapsed)
	}
}

func TestUnlinkIsSynchronous(t *testing.T) {
	fs := newFS(t, 64<<20)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	var c syncCounter
	fs.Disk().SetTracer(&c)
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if c.syncWrites < 2 {
		t.Fatalf("unlink performed %d sync writes, want >= 2", c.syncWrites)
	}
}

// TestDataWritesAreDelayed verifies that file data is not written at
// write() time but by the delayed write-back.
func TestDataWritesAreDelayed(t *testing.T) {
	fs := newFS(t, 64<<20)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	var c syncCounter
	fs.Disk().SetTracer(&c)
	if err := fs.Write("/f", 0, bytes.Repeat([]byte{1}, 8192)); err != nil {
		t.Fatal(err)
	}
	if c.totalWrites != 0 {
		t.Fatalf("write() issued %d disk writes, want 0 (delayed write-back)", c.totalWrites)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if c.totalWrites == 0 {
		t.Fatal("sync issued no writes")
	}
}

func TestDataPersistsAcrossRemount(t *testing.T) {
	d := disk.NewMem(64<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xC3}, 20000)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/d/f", 0, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	fs2, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	n, err := fs2.Read("/d/f", 0, got)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || !bytes.Equal(got, want) {
		t.Fatal("data lost across remount")
	}
}

// TestCrashLosesOnlyUnsyncedData: after a crash, synchronously written
// metadata survives (the file exists) but unsynced data is gone.
func TestCrashLosesOnlyUnsyncedData(t *testing.T) {
	d := disk.NewMem(64<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/synced"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/synced", 0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/unsynced"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/unsynced", 0, []byte("volatile")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	fs2, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := fs2.Read("/synced", 0, buf)
	if err != nil || string(buf[:n]) != "durable" {
		t.Fatalf("synced file damaged: %q, %v", buf[:n], err)
	}
	// The unsynced file's creation was synchronous, so the name
	// survives — but its data was only in the cache.
	fi, err := fs2.Stat("/unsynced")
	if err != nil {
		t.Fatalf("unsynced file name lost: %v", err)
	}
	if fi.Size != 0 {
		n, _ := fs2.Read("/unsynced", 0, buf)
		if string(buf[:n]) == "volatile" {
			t.Fatal("unsynced data unexpectedly survived the crash")
		}
	}
}

// TestReturnedNamesSurvivePowerCut cuts power at every write of a
// stream of mkdirs, creates, a link, a rename and removes, and requires
// every name an operation returned, among them those whose insert grew
// the directory: the block, then the grown directory's inode, go to
// disk before the call returns (BSD direnter's order), and mkdir gives
// a directory its first block. The first blocks of /d (which holds f)
// and /e are filled with long names, so the link into /d and the rename
// into /e each need a new block; the removes then take names from the
// full blocks, first entries among them, whose removal shifts the
// entries after them.
func TestReturnedNamesSurvivePowerCut(t *testing.T) {
	long := func(dir string, i int) string { return fmt.Sprintf("%s/%s%03d", dir, strings.Repeat("n", 240), i) }
	// fits is how many long names a block's directory blocks hold after
	// first, each filled before the next, as vfs.Dirs fills them.
	fits := func(first ...string) int {
		n, blk := 0, make([]byte, disk.SectorSize)
		for range ffs.DefaultConfig().BlockSize / disk.SectorSize {
			layout.InitDirBlock(blk)
			for {
				name := long("", n)[1:]
				if n < len(first) {
					name = first[n]
				}
				ok, err := layout.DirBlockInsert(blk, layout.DirEntry{Ino: 1, Name: name})
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
		}
		return n - len(first)
	}
	ops := []fstest.Op{
		{Kind: fstest.OpMkdir, Path: "/d"},
		{Kind: fstest.OpCreate, Path: "/d/f"},
		{Kind: fstest.OpMkdir, Path: "/e"},
		{Kind: fstest.OpCreate, Path: "/g"},
	}
	nd, ne := fits("f"), fits()
	for i := 0; i < max(nd, ne); i++ {
		if i < nd {
			ops = append(ops, fstest.Op{Kind: fstest.OpCreate, Path: long("/d", i)})
		}
		if i < ne {
			ops = append(ops, fstest.Op{Kind: fstest.OpCreate, Path: long("/e", i)})
		}
	}
	sweepFFS(t, ffs.DefaultConfig(), append(ops,
		fstest.Op{Kind: fstest.OpLink, Path: "/d/f", Path2: long("/d", nd)},
		fstest.Op{Kind: fstest.OpRename, Path: "/g", Path2: long("/e", ne)},
		fstest.Op{Kind: fstest.OpRemove, Path: "/d/f"},
		fstest.Op{Kind: fstest.OpRemove, Path: long("/e", 0)},
		fstest.Op{Kind: fstest.OpRemove, Path: long("/d", nd/2)},
		fstest.Op{Kind: fstest.OpRemove, Path: long("/e", ne-1)},
	))
}

// dirWrites is a fault policy that persists every write and records,
// for each one labelled as directory data, how many sectors it changed:
// the image before it is read when it is presented, the image after it
// when the next write is presented or settle runs.
type dirWrites struct {
	store   disk.Store
	pending *disk.WriteOp
	before  []byte
	changed []int
}

func (w *dirWrites) Write(op disk.WriteOp) disk.WriteDecision {
	w.settle()
	if strings.Contains(op.Label, "dir data") {
		w.pending = &op
		w.before = w.read(op)
	}
	return disk.WriteDecision{}
}

func (w *dirWrites) Read(disk.ReadOp) error { return nil }

func (w *dirWrites) read(op disk.WriteOp) []byte {
	buf := make([]byte, op.Sectors*disk.SectorSize)
	if err := w.store.ReadAt(buf, op.Sector*disk.SectorSize); err != nil {
		panic(err)
	}
	return buf
}

// settle counts the changed sectors of the pending directory write.
func (w *dirWrites) settle() {
	if w.pending == nil {
		return
	}
	after, n := w.read(*w.pending), 0
	for off := 0; off < len(after); off += disk.SectorSize {
		if !bytes.Equal(after[off:off+disk.SectorSize], w.before[off:off+disk.SectorSize]) {
			n++
		}
	}
	w.changed = append(w.changed, n)
	w.pending = nil
}

// TestDirectoryWriteChangesOneSector: each synchronous directory write
// of a create, a remove of an early and of a late name, a link and a
// cross-directory rename changes one sector of the directory's block,
// so a write torn at a sector boundary leaves every directory block as
// it was or as it became (4.3BSD's 512-byte DIRBLKSIZ).
func TestDirectoryWriteChangesOneSector(t *testing.T) {
	d := disk.NewMem(64<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.Mkdir("/d"))
	must(fs.Mkdir("/e"))
	for i := 0; i < 300; i++ { // about 3 KB of entries: six sectors' worth
		must(fs.Create(fmt.Sprintf("/d/f%03d", i)))
	}
	must(fs.Sync())
	w := &dirWrites{store: d.Store()}
	d.SetFaultPolicy(w)
	for _, step := range []struct {
		name   string
		op     func() error
		writes int
	}{
		{"create", func() error { return fs.Create("/d/new") }, 1},
		{"remove an early name", func() error { return fs.Remove("/d/f001") }, 1},
		{"remove a late name", func() error { return fs.Remove("/d/f298") }, 1},
		{"link", func() error { return fs.Link("/d/f100", "/d/linked") }, 1},
		{"rename to another directory", func() error { return fs.Rename("/d/f150", "/e/moved") }, 2},
	} {
		w.changed = nil
		must(step.op())
		w.settle()
		if len(w.changed) != step.writes {
			t.Errorf("%s: %d directory writes, want %d", step.name, len(w.changed), step.writes)
		}
		for _, n := range w.changed {
			if n != 1 {
				t.Errorf("%s: a directory write changed %d sectors, want 1", step.name, n)
			}
		}
	}
}

// TestFFSCrashPointSweep cuts power at every write of a scripted and a
// generated workload and requires fsck's repair, then mount, to
// recover: a clean check, every returned name, every synced byte, and a
// volume that takes new files. Each runs at the default configuration
// and with a 24-block cache of 4 KB blocks, whose evictions write
// blocks back in the middle of operations.
func TestFFSCrashPointSweep(t *testing.T) {
	small := ffs.DefaultConfig()
	small.BlockSize, small.CacheBlocks = 4096, 24
	for _, tc := range []struct {
		name string
		cfg  ffs.Config
	}{{"default", ffs.DefaultConfig()}, {"small-cache", small}} {
		t.Run(tc.name+"/mixed", func(t *testing.T) {
			sweepFFS(t, tc.cfg, fstest.MixedWorkload(24, tc.cfg.BlockSize))
		})
		t.Run(tc.name+"/random", func(t *testing.T) {
			sweepFFS(t, tc.cfg, fstest.RandomWorkload(7, 400))
		})
	}
}

func TestFsckCleanFilesystem(t *testing.T) {
	d := disk.NewMem(64<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, bytes.Repeat([]byte{byte(i)}, 10000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := ffs.Fsck(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("fsck found problems on a clean fs: %v", rep.Problems)
	}
	if rep.Files != 20 || rep.Dirs != 2 { // root + /d + 20 files
		t.Fatalf("fsck found %d files and %d directories, want 20 and 2", rep.Files, rep.Dirs)
	}
	if rep.Duration <= 0 {
		t.Fatal("fsck took no simulated time")
	}
}

// TestFsckCostScalesWithDiskSize: the recovery-cost property LFS
// attacks — fsck reads all metadata regardless of damage.
func TestFsckCostScalesWithDiskSize(t *testing.T) {
	durationFor := func(capacity int64) sim.Duration {
		d := disk.NewMem(capacity, sim.NewClock())
		cfg := ffs.DefaultConfig()
		if err := ffs.Format(d, cfg); err != nil {
			t.Fatal(err)
		}
		rep, err := ffs.Fsck(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Duration
	}
	small := durationFor(16 << 20)
	large := durationFor(128 << 20)
	if ratio := float64(large) / float64(small); ratio < 3 {
		t.Fatalf("fsck on 8x disk only %.1fx slower; cost should scale with disk size", ratio)
	}
}

func TestFreeSpaceDecreasesAndRecovers(t *testing.T) {
	fs := newFS(t, 32<<20)
	// Warm the root directory's data block so it doesn't count as
	// "lost" space below (directories never shrink).
	if err := fs.Create("/warm"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/warm"); err != nil {
		t.Fatal(err)
	}
	before := fs.FreeSpace()
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	mid := fs.FreeSpace()
	if mid >= before {
		t.Fatal("free space did not decrease after 1MB write")
	}
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	after := fs.FreeSpace()
	if after != before {
		t.Fatalf("free space %d after remove, want %d", after, before)
	}
}

func TestNoSpace(t *testing.T) {
	// A minimal disk: fill it and expect ErrNoSpace, not corruption.
	d := disk.NewMem(4<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	cfg.CacheBlocks = 64
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/hog"); err != nil {
		t.Fatal(err)
	}
	var wErr error
	for i := 0; i < 4096; i++ {
		wErr = fs.Write("/hog", int64(i)<<13, make([]byte, 8192))
		if wErr != nil {
			break
		}
	}
	if !errors.Is(wErr, vfs.ErrNoSpace) {
		t.Fatalf("filling the disk returned %v, want ErrNoSpace", wErr)
	}
}

func TestInodeExhaustion(t *testing.T) {
	// One group => InodesPerGroup inodes (minus root). Exhaust them.
	d := disk.NewMem(4<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	cfg.InodesPerGroup = 16
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cErr error
	for i := 0; i < 64; i++ {
		cErr = fs.Create(fmt.Sprintf("/f%d", i))
		if cErr != nil {
			break
		}
	}
	if !errors.Is(cErr, vfs.ErrNoSpace) {
		t.Fatalf("inode exhaustion returned %v, want ErrNoSpace", cErr)
	}
}

func TestDropCaches(t *testing.T) {
	fs := newFS(t, 32<<20)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.DropCaches()
	// Reads now must hit the disk.
	before := fs.Disk().Stats().Reads
	buf := make([]byte, 64<<10)
	if _, err := fs.Read("/f", 0, buf); err != nil {
		t.Fatal(err)
	}
	if fs.Disk().Stats().Reads == before {
		t.Fatal("read after DropCaches hit no disk")
	}
}

func TestAtimeUpdatedOnRead(t *testing.T) {
	fs := newFS(t, 32<<20)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	fi1, _ := fs.Stat("/f")
	if _, err := fs.Read("/f", 0, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	fi2, _ := fs.Stat("/f")
	if fi2.Atime < fi1.Atime {
		t.Fatal("atime went backwards")
	}
	if fi2.Mtime != fi1.Mtime {
		t.Fatal("read changed mtime")
	}
}

// TestFsckDetectsCorruption: fsck must report manufactured damage,
// not just bless clean volumes.
func TestFsckDetectsCorruption(t *testing.T) {
	cfg := ffs.DefaultConfig()
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, img disk.Store)
		want   string
	}{
		// Zero group 0's bitmap block (block 1), so every allocated
		// block appears free.
		{"zeroed bitmap", func(t *testing.T, img disk.Store) {
			if err := img.WriteAt(make([]byte, cfg.BlockSize), int64(cfg.BlockSize)); err != nil {
				t.Fatal(err)
			}
		}, "references unallocated block"},
		// Rename one entry of the root directory to its neighbour's
		// name, in place.
		{"duplicate name", func(t *testing.T, img disk.Store) {
			buf := make([]byte, img.Size())
			if err := img.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			at := bytes.Index(buf, []byte("dup-two"))
			if at < 0 {
				t.Fatal("no directory entry named dup-two on disk")
			}
			if err := img.WriteAt([]byte("dup-one"), int64(at)); err != nil {
				t.Fatal(err)
			}
		}, `/: duplicate entry "dup-one"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := disk.NewMem(32<<20, sim.NewClock())
			if err := ffs.Format(d, cfg); err != nil {
				t.Fatal(err)
			}
			fs, err := ffs.Mount(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"/f", "/dup-one", "/dup-two"} {
				if err := fs.Create(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Write("/f", 0, bytes.Repeat([]byte{1}, 30000)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Unmount(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, d.Store())
			rep, err := ffs.Fsck(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.Contains(p, tc.want) }) {
				t.Fatalf("fsck problems %q, want one saying %q", rep.Problems, tc.want)
			}
		})
	}
}

// TestFsckParsesEachDirectoryBlock: fsck reads a directory's 512-byte
// directory blocks one by one, so a damaged one is reported and the
// entries of the next one in the same block are still reached. The
// repair frees nothing on the guess the damage forces: once the name
// length is restored, every file is there again and a second fsck finds
// nothing.
func TestFsckParsesEachDirectoryBlock(t *testing.T) {
	d := disk.NewMem(32<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 80 names of 10-byte entries: 51 fill the first directory block,
	// 29 go in the second.
	for i := 0; i < 80; i++ {
		if err := fs.Create(fmt.Sprintf("/f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// A file named in the block that will be damaged holds blocks the
	// repair must leave allocated.
	if err := fs.Write("/f003", 0, bytes.Repeat([]byte{3}, 30000)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, d.Store().Size())
	if err := d.Store().ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(img, []byte("f007"))
	if at < 0 {
		t.Fatal("no directory entry named f007 on disk")
	}
	nameLen := slices.Clone(img[at-2 : at])
	if err := d.Store().WriteAt([]byte{0, 0}, int64(at-2)); err != nil { // its name length
		t.Fatal(err)
	}
	rep, err := ffs.Fsck(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := "block 0, directory block 0: layout: directory entry 7 has bad name length 0"
	if !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.Contains(p, want) }) {
		t.Errorf("fsck problems %q, want one saying %q", rep.Problems, want)
	}
	if rep.Files != 29 {
		t.Errorf("fsck reached %d files, want the second directory block's 29", rep.Files)
	}

	if err := d.Store().WriteAt(nameLen, int64(at-2)); err != nil {
		t.Fatal(err)
	}
	if fs, err = ffs.Mount(d, cfg); err != nil {
		t.Fatal(err)
	}
	if fi, err := fs.Stat("/f003"); err != nil || fi.Size != 30000 {
		t.Errorf("after the repair and the restored name length: %+v, %v; want 30000 bytes", fi, err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if rep, err = ffs.Fsck(d, cfg); err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Files != 80 {
		t.Errorf("second fsck reached %d files and reported %q, want 80 and nothing", rep.Files, rep.Problems)
	}
}

// TestFsckRepairs: fsck reports what a power cut leaves behind — an
// inode on disk whose entry and bitmap bit never were — repairs it, so
// that a second fsck finds nothing, and the volume takes new files.
func TestFsckRepairs(t *testing.T) {
	d := disk.NewMem(32<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 30000)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Create writes the new inode, then the directory block; the cut
	// loses the second. The inode bitmap was a delayed write.
	d.SetFaultPolicy(&disk.CrashPlan{CutWrite: 2})
	if err := fs.Create("/g"); !errors.Is(err, disk.ErrPowerLoss) {
		t.Fatalf("create across the cut: %v", err)
	}
	fs.Crash()
	d.Thaw()
	d.SetFaultPolicy(nil)
	rep, err := ffs.Fsck(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"allocated but unreachable", "in use but free in bitmap"} {
		if !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.Contains(p, want) }) {
			t.Errorf("fsck problems %q, want one saying %q", rep.Problems, want)
		}
	}
	if rep, err = ffs.Fsck(d, cfg); err != nil || !rep.Ok() {
		t.Fatalf("fsck after the repair: %v %q", err, rep.Problems)
	}
	if fs, err = ffs.Mount(d, cfg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := fs.Read("/f", 0, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("synced file after the repair: %v", err)
	}
	for _, p := range []string{"/g", "/h"} {
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if rep, err = ffs.Fsck(d, cfg); err != nil || !rep.Ok() || rep.Files != 3 {
		t.Fatalf("fsck after new files: %v, %d files, problems %q", err, rep.Files, rep.Problems)
	}
}

// TestFsckDoubleIndirectDirectory: a directory whose blocks reach double
// indirection is read in full, so nothing under it reads as unreachable.
// With 512-byte blocks two 200-character names fill a block and 2001 of
// them take the directory past the 12 direct and 128 single-indirect
// blocks.
func TestFsckDoubleIndirectDirectory(t *testing.T) {
	d := disk.NewMem(16<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	cfg.BlockSize = 512
	cfg.InodesPerGroup = 64
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const files = 2001
	for i := range files {
		if err := fs.Create(fmt.Sprintf("/%0200d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := ffs.Fsck(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Files != files {
		t.Fatalf("fsck found %d of %d files, %d problems, the first %q", rep.Files, files, len(rep.Problems), rep.Problems[:min(len(rep.Problems), 3)])
	}
}

// TestFsckProblemsDeterministicOrder is the regression test for the
// lfslint maporder finding fixed in fsck's Pass 3: per-inode problems
// used to be emitted in map iteration order, so the report — which
// lfsck prints and tests golden — differed between identical runs.
// With many damaged inodes, the Pass 3 lines must come out in
// ascending inode order every time.
func TestFsckProblemsDeterministicOrder(t *testing.T) {
	d := disk.NewMem(32<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		p := fmt.Sprintf("/f%02d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Zero group 0's bitmap: every allocated inode now reads as free,
	// so Pass 3 reports one problem per inode.
	zero := make([]byte, cfg.BlockSize)
	if err := d.Store().WriteAt(zero, int64(cfg.BlockSize)); err != nil {
		t.Fatal(err)
	}
	rep, err := ffs.Fsck(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last, seen := -1, 0
	for _, p := range rep.Problems {
		var ino int
		if _, err := fmt.Sscanf(p, "inode %d in use but free in bitmap", &ino); err != nil {
			continue
		}
		seen++
		if ino <= last {
			t.Fatalf("bitmap problems out of ascending inode order: %d after %d\n%v",
				ino, last, rep.Problems)
		}
		last = ino
	}
	if seen < 25 {
		t.Fatalf("only %d per-inode bitmap problems reported, want at least 25", seen)
	}
}

// TestDoubleIndirectLifecycle exercises FFS's double-indirect paths:
// sparse writes land blocks in the double-indirect region, reads find
// them (and holes around them), and truncation releases the whole
// pointer tree.
func TestDoubleIndirectLifecycle(t *testing.T) {
	fs := newFS(t, 64<<20)
	if err := fs.Create("/sparse"); err != nil {
		t.Fatal(err)
	}
	bs := int64(8192)
	// Block offsets: one direct, one single-indirect, several
	// double-indirect (including two different outer slots).
	apb := int64(8192 / 4)
	offsets := []int64{
		0,                           // direct
		(12 + 5) * bs,               // single indirect
		(12 + apb + 3) * bs,         // double indirect, outer 0
		(12 + apb + apb + 7) * bs,   // double indirect, outer 1
		(12 + apb + 2*apb + 1) * bs, // double indirect, outer 2
	}
	for i, off := range offsets {
		data := bytes.Repeat([]byte{byte(i + 1)}, 8192)
		if err := fs.Write("/sparse", off, data); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.DropCaches()
	buf := make([]byte, 8192)
	for i, off := range offsets {
		n, err := fs.Read("/sparse", off, buf)
		if err != nil || n != 8192 {
			t.Fatalf("read at %d: n=%d err=%v", off, n, err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("block at %d reads %d, want %d", off, buf[0], i+1)
		}
	}
	// A hole between two double-indirect blocks reads zero.
	n, err := fs.Read("/sparse", (12+apb+10)*bs, buf)
	if err != nil || n != 8192 {
		t.Fatalf("hole read: n=%d err=%v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	// Partial truncation keeps outer slot 0, releases slots 1-2.
	keep := (12 + apb + apb) * bs // everything below outer slot 1
	if err := fs.Truncate("/sparse", keep); err != nil {
		t.Fatal(err)
	}
	n, err = fs.Read("/sparse", offsets[2], buf)
	if err != nil || n != 8192 || buf[0] != 3 {
		t.Fatalf("outer-0 block lost by partial truncate: n=%d err=%v b=%d", n, err, buf[0])
	}
	// Full release: all blocks (and indirect blocks) come back as
	// free space.
	before := fs.FreeSpace()
	if err := fs.Remove("/sparse"); err != nil {
		t.Fatal(err)
	}
	if fs.FreeSpace() <= before {
		t.Fatal("remove of sparse file freed nothing")
	}
	// The volume stays consistent.
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := ffs.Fsck(fs.Disk(), ffs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("fsck after double-indirect lifecycle: %v", rep.Problems)
	}
}

// TestWritebackAge holds FFS's delayed write-back: a dirty data block
// younger than cache.WritebackAge stays in the cache, and the first
// operation after it reaches that age writes it back. Reads do not run
// the write-back check, so each probe is a one-byte write to another
// file.
func TestWritebackAge(t *testing.T) {
	fs := newFS(t, 32<<20)
	for _, p := range []string{"/f", "/g"} {
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	writebacks := func() int64 { return fs.Disk().Stats().ByCause[disk.CauseWriteback].Requests }
	base := writebacks()
	t0 := fs.Clock().Now() // no block is dirty before t0
	if err := fs.Write("/f", 0, bytes.Repeat([]byte{5}, 8192)); err != nil {
		t.Fatal(err)
	}
	fs.Clock().Advance(cache.WritebackAge - 10*sim.Millisecond - fs.Clock().Now().Sub(t0))
	if err := fs.Write("/g", 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if age := fs.Clock().Now().Sub(t0); age >= cache.WritebackAge {
		t.Fatalf("the probe took the block to age %v, past %v", age, cache.WritebackAge)
	}
	if got := writebacks(); got != base {
		t.Fatalf("%d write-backs while the block was younger than %v", got-base, cache.WritebackAge)
	}
	fs.Clock().Advance(cache.WritebackAge)
	if err := fs.Write("/g", 1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if writebacks() == base {
		t.Fatal("no write-back at the first operation past the write-back age")
	}
}

func TestConfigValidation(t *testing.T) {
	base := ffs.DefaultConfig()
	cases := []func(*ffs.Config){
		func(c *ffs.Config) { c.BlockSize = 0 },
		func(c *ffs.Config) { c.BlockSize = 1000 },
		func(c *ffs.Config) { c.BlocksPerGroup = 2 },
		func(c *ffs.Config) { c.InodesPerGroup = 0 },
		func(c *ffs.Config) { c.InodesPerGroup = 7 },
		func(c *ffs.Config) { c.CacheBlocks = 1 },
		func(c *ffs.Config) { c.MIPS = 0 },
		func(c *ffs.Config) { c.BlocksPerGroup = 9; c.InodesPerGroup = 4096 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestSteadyStateAllocs(t *testing.T) {
	fstest.RunSteadyStateAllocs(t, newFS(t, 64<<20))
}
