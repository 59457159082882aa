package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lfs/internal/cache"
	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/experiments"
	"lfs/internal/fstest"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// newPair formats a fresh LFS on a memory disk and mounts it.
func newPair(t *testing.T, capacity int64, cfg core.Config) (*disk.Disk, *core.FS) {
	t.Helper()
	d := disk.NewMem(capacity, sim.NewClock())
	if err := core.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, fs
}

// testConfig shrinks the inode map so small test disks format quickly.
// tearNextWrite makes d persist only the leading half of its next
// write while reporting success — a transfer power loss interrupted —
// and every later write whole.
func tearNextWrite(d *disk.Disk) { d.SetFaultPolicy(&tearOnce{}) }

// tearOnce is the disk.FaultPolicy behind tearNextWrite. With lose set
// it keeps all but the write's last lose sectors instead.
type tearOnce struct {
	done bool
	lose int
}

func (p *tearOnce) Read(disk.ReadOp) error { return nil }

func (p *tearOnce) Write(op disk.WriteOp) disk.WriteDecision {
	if p.done {
		return disk.WriteDecision{}
	}
	p.done = true
	keep := max(op.Sectors/2, 1)
	if p.lose > 0 {
		keep = op.Sectors - p.lose
	}
	return disk.WriteDecision{Action: disk.WriteTear, KeepSectors: keep}
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxInodes = 4096
	return cfg
}

func newFS(t *testing.T, capacity int64) *core.FS {
	t.Helper()
	_, fs := newPair(t, capacity, testConfig())
	return fs
}

func TestLFSConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem {
		return newFS(t, 64<<20)
	})
}

// TestLFSDurabilityEquivalence sweeps generated streams on the test
// configuration: the recording pass ends with a clean unmount whose
// remount must hold the model's tree, and every crash point must
// recover.
func TestLFSDurabilityEquivalence(t *testing.T) {
	for seed := int64(10); seed <= 13; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, err := fstest.RunCrashPoints(fstest.CrashConfig{
				Target:       experiments.LFSTarget(testConfig()),
				DiskCapacity: 64 << 20,
				Workload:     fstest.RandomWorkload(seed, 300),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range rep.Failures {
				if i >= 20 {
					t.Errorf("... and %d more failures", len(rep.Failures)-i)
					break
				}
				t.Error(f.String())
			}
		})
	}
}

func TestLFSModelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fstest.RunEquivalence(t, func(t *testing.T) vfs.FileSystem {
				return newFS(t, 64<<20)
			}, seed, 400)
		})
	}
}

func TestFormatValidation(t *testing.T) {
	d := disk.NewMem(8<<20, sim.NewClock())
	bad := testConfig()
	bad.BlockSize = 1000
	if err := core.Format(d, bad); err == nil {
		t.Fatal("bad block size accepted")
	}
	tiny := disk.NewMem(2<<20, sim.NewClock())
	if err := core.Format(tiny, testConfig()); err == nil {
		t.Fatal("disk smaller than 4 segments accepted")
	}
}

func TestMountRejectsUnformatted(t *testing.T) {
	d := disk.NewMem(16<<20, sim.NewClock())
	if _, err := core.Mount(d, testConfig()); err == nil {
		t.Fatal("mounted an unformatted disk")
	}
}

func TestMountRejectsMismatchedGeometry(t *testing.T) {
	d := disk.NewMem(16<<20, sim.NewClock())
	cfg := testConfig()
	if err := core.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.SegmentSize = 512 << 10
	if _, err := core.Mount(d, cfg2); err == nil {
		t.Fatal("mounted with wrong segment size")
	}
	cfg3 := cfg
	cfg3.MaxInodes = 8192
	if _, err := core.Mount(d, cfg3); err == nil {
		t.Fatal("mounted with wrong inode count")
	}
}

// writeCounter tallies writes by sync flag.
type writeCounter struct {
	sync, async, reads int
}

func (c *writeCounter) Record(ev disk.Event) {
	switch {
	case ev.Kind == disk.OpRead:
		c.reads++
	case ev.Sync:
		c.sync++
	default:
		c.async++
	}
}

// TestCreateIsAsynchronous is the LFS half of Figures 1-2: creating
// files performs no synchronous writes and, until a segment write
// triggers, no disk writes at all.
func TestCreateIsAsynchronous(t *testing.T) {
	fs := newFS(t, 64<<20)
	if err := fs.Mkdir("/dir1"); err != nil {
		t.Fatal(err)
	}
	var c writeCounter
	fs.Disk().SetTracer(&c)
	before := fs.Clock().Now()
	for i := 0; i < 50; i++ {
		p := fmt.Sprintf("/dir1/file%d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, bytes.Repeat([]byte{1}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if c.sync != 0 {
		t.Fatalf("small-file creation performed %d synchronous writes, want 0", c.sync)
	}
	if c.async != 0 {
		t.Fatalf("small-file creation performed %d eager writes, want 0 (buffered)", c.async)
	}
	// Creation speed is CPU-bound: 50 create+write pairs take a few
	// hundred ms of simulated CPU, far below the >1s that 100 sync
	// random writes would cost.
	elapsed := fs.Clock().Now().Sub(before)
	if elapsed > sim.Second {
		t.Fatalf("50 small-file creations took %v; LFS should be CPU-bound, not disk-bound", elapsed)
	}
}

// TestSyncWritesOneLargeTransfer: after many small creates, a sync
// produces a small number of large sequential writes.
func TestSyncWritesOneLargeTransfer(t *testing.T) {
	fs := newFS(t, 64<<20)
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, bytes.Repeat([]byte{2}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	var events []disk.Event
	fs.Disk().SetTracer(tracerFunc(func(ev disk.Event) { events = append(events, ev) }))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	var writes, seq int
	var bytesOut int64
	for _, ev := range events {
		if ev.Kind != disk.OpWrite {
			continue
		}
		writes++
		if ev.Sequential {
			seq++
		}
		bytesOut += int64(ev.Sectors) * disk.SectorSize
	}
	if writes == 0 {
		t.Fatal("sync wrote nothing")
	}
	if writes > 8 {
		t.Fatalf("sync issued %d writes for 20 small files; LFS should batch into a few large transfers", writes)
	}
	if bytesOut < 20*1024 {
		t.Fatalf("sync wrote only %d bytes", bytesOut)
	}
}

type tracerFunc func(disk.Event)

func (f tracerFunc) Record(ev disk.Event) { f(ev) }

func TestDataPersistsAcrossCleanRemount(t *testing.T) {
	cfg := testConfig()
	d, fs := newPair(t, 64<<20, cfg)
	want := bytes.Repeat([]byte{0xEE}, 30000)
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

	fs2, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	n, err := fs2.Read("/d/f", 0, got)
	if err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("data lost across remount: n=%d err=%v", n, err)
	}
	entries, err := fs2.ReadDir("/d")
	if err != nil || len(entries) != 1 || entries[0].Name != "f" {
		t.Fatalf("directory lost across remount: %v %v", entries, err)
	}
}

// TestCrashRecoveryFromCheckpoint: state up to the last checkpoint
// survives a crash even with roll-forward disabled.
func TestCrashRecoveryFromCheckpoint(t *testing.T) {
	cfg := testConfig()
	cfg.RollForward = false
	d, fs := newPair(t, 64<<20, cfg)
	if err := fs.Create("/durable"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/durable", 0, []byte("checkpointed")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint activity that will be lost.
	if err := fs.Create("/volatile"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	fs2, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := fs2.Read("/durable", 0, buf)
	if err != nil || string(buf[:n]) != "checkpointed" {
		t.Fatalf("checkpointed data lost: %q %v", buf[:n], err)
	}
	if _, err := fs2.Stat("/volatile"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("uncheckpointed create should be lost without roll-forward, got %v", err)
	}
}

// TestRollForwardRecoversPostCheckpointWrites: with roll-forward, data
// that reached the log (via sync) after the last checkpoint survives.
func TestRollForwardRecoversPostCheckpointWrites(t *testing.T) {
	cfg := testConfig()
	cfg.RollForward = true
	d, fs := newPair(t, 64<<20, cfg)
	if err := fs.Create("/old"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Written and synced after the checkpoint, but never
	// checkpointed.
	if err := fs.Mkdir("/post"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/post/f"); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5C}, 9000)
	if err := fs.Write("/post/f", 0, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	fs2, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Stats().RollForwardUnits == 0 {
		t.Fatal("mount performed no roll-forward")
	}
	got := make([]byte, len(want))
	n, err := fs2.Read("/post/f", 0, got)
	if err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("rolled-forward data wrong: n=%d err=%v", n, err)
	}
	if _, err := fs2.Stat("/old"); err != nil {
		t.Fatalf("checkpointed file lost: %v", err)
	}
}

// TestRollForwardStopsAtTornWrite: a torn final segment write must
// not be replayed.
func TestRollForwardStopsAtTornWrite(t *testing.T) {
	cfg := testConfig()
	d, fs := newPair(t, 64<<20, cfg)
	if err := fs.Create("/safe"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/torn"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/torn", 0, bytes.Repeat([]byte{7}, 60000)); err != nil {
		t.Fatal(err)
	}
	tearNextWrite(d)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	fs2, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatalf("mount after torn write failed: %v", err)
	}
	if _, err := fs2.Stat("/safe"); err != nil {
		t.Fatalf("checkpointed file lost after torn write: %v", err)
	}
	// The torn file may or may not exist depending on where the
	// tear fell, but reading whatever exists must not fail.
	if _, err := fs2.Stat("/torn"); err == nil {
		buf := make([]byte, 60000)
		if _, err := fs2.Read("/torn", 0, buf); err != nil {
			t.Fatalf("reading partially recovered file failed: %v", err)
		}
	}
}

// TestMountIsFast: LFS recovery reads checkpoints and the log tail,
// not the whole disk — simulated mount time must be far below a full
// scan.
func TestMountIsFast(t *testing.T) {
	cfg := testConfig()
	d, fs := newPair(t, 128<<20, cfg)
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	before := d.Clock().Now()
	if _, err := core.Mount(d, cfg); err != nil {
		t.Fatal(err)
	}
	mountTime := d.Clock().Now().Sub(before)
	// A full 128 MB scan at 1.3 MB/s would take ~98 seconds; the
	// checkpoint mount should take well under one.
	if mountTime > sim.Second {
		t.Fatalf("mount took %v of simulated time; recovery must not scan the disk", mountTime)
	}
}

func TestCleanerReclaimsDeletedSpace(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 256 // force frequent segment writes
	_, fs := newPair(t, 32<<20, cfg)
	payload := bytes.Repeat([]byte{3}, 4096)
	// Fill several segments, then delete everything.
	for i := 0; i < 800; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		if err := fs.Remove(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	before := fs.CleanSegments()
	res, err := fs.CleanUntil(int(32 << 20 / cfg.SegmentSize)) // everything
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsCleaned == 0 {
		t.Fatal("cleaner reclaimed nothing from a fully deleted log")
	}
	if fs.CleanSegments() <= before {
		t.Fatal("clean segment count did not rise")
	}
	// Dead blocks must not be copied: utilization was ~0.
	if res.LiveCopied > res.BlocksExamined/4 {
		t.Fatalf("cleaner copied %d of %d blocks from dead segments", res.LiveCopied, res.BlocksExamined)
	}
}

func TestCleanerPreservesLiveData(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 256
	d, fs := newPair(t, 32<<20, cfg)
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i*13 + 7)}, 4096)
	}
	// Interleave survivors and victims so every segment is half
	// live.
	for i := 0; i < 600; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i += 2 {
		if err := fs.Remove(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	res, err := fs.CleanUntil(fs.CleanSegments() + 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsCleaned == 0 {
		t.Fatal("cleaner did nothing")
	}
	if res.LiveCopied == 0 {
		t.Fatal("cleaner copied no live blocks from half-utilised segments")
	}
	// All survivors intact, after cleaning AND after a remount.
	check := func(fsys vfs.FileSystem, tag string) {
		for i := 1; i < 600; i += 2 {
			p := fmt.Sprintf("/f%d", i)
			buf := make([]byte, 4096)
			n, err := fsys.Read(p, 0, buf)
			if err != nil || n != 4096 || !bytes.Equal(buf, payload(i)) {
				t.Fatalf("%s: survivor %s corrupted (n=%d err=%v)", tag, p, n, err)
			}
		}
	}
	check(fs, "after clean")
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check(fs2, "after remount")
}

// TestCleanerActivatesAutomatically: sustained churn beyond the disk's
// capacity must keep succeeding because the cleaner reclaims dead
// segments.
func TestCleanerActivatesAutomatically(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 128
	_, fs := newPair(t, 12<<20, cfg)
	payload := bytes.Repeat([]byte{9}, 4096)
	// Total log traffic (data + metadata rewrites) far exceeds the
	// 12 MB disk while live data stays around 2.5-5 MB — the log
	// wraps several times, which only works if cleaning happens.
	for gen := 0; gen < 5; gen++ {
		for i := 0; i < 600; i++ {
			p := fmt.Sprintf("/g%d-%d", gen, i)
			if err := fs.Create(p); err != nil {
				t.Fatalf("gen %d file %d: %v", gen, i, err)
			}
			if err := fs.Write(p, 0, payload); err != nil {
				t.Fatalf("gen %d file %d: %v", gen, i, err)
			}
		}
		if gen > 0 {
			for i := 0; i < 600; i++ {
				if err := fs.Remove(fmt.Sprintf("/g%d-%d", gen-1, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if fs.Stats().CleanerRuns == 0 {
		t.Fatal("cleaner never activated under log wrap-around")
	}
	// Final generation fully readable.
	buf := make([]byte, 4096)
	for i := 0; i < 600; i += 37 {
		if _, err := fs.Read(fmt.Sprintf("/g4-%d", i), 0, buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoSpaceWhenLiveDataFillsDisk(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 64
	_, fs := newPair(t, 8<<20, cfg)
	if err := fs.Create("/hog"); err != nil {
		t.Fatal(err)
	}
	var wErr error
	for i := 0; i < 4096; i++ {
		wErr = fs.Write("/hog", int64(i)*4096, make([]byte, 4096))
		if wErr != nil {
			break
		}
	}
	if !errors.Is(wErr, vfs.ErrNoSpace) {
		t.Fatalf("filling the disk returned %v, want ErrNoSpace", wErr)
	}
}

func TestInodeExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInodes = 64
	_, fs := newPair(t, 16<<20, cfg)
	var cErr error
	for i := 0; i < 128; i++ {
		cErr = fs.Create(fmt.Sprintf("/f%d", i))
		if cErr != nil {
			break
		}
	}
	if !errors.Is(cErr, vfs.ErrNoSpace) {
		t.Fatalf("inode exhaustion returned %v, want ErrNoSpace", cErr)
	}
}

func TestVersionBumpOnDeleteAndReuse(t *testing.T) {
	_, fs := newPair(t, 32<<20, testConfig())
	if err := fs.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/a", 0, bytes.Repeat([]byte{1}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fiA, _ := fs.Stat("/a")
	if err := fs.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	// The inode number is reused; the version bump keeps the old
	// file's logged blocks dead.
	if err := fs.Create("/b"); err != nil {
		t.Fatal(err)
	}
	fiB, _ := fs.Stat("/b")
	if fiA.Ino != fiB.Ino {
		t.Skipf("inode number not reused (%d then %d); version path not exercised", fiA.Ino, fiB.Ino)
	}
	if err := fs.Write("/b", 0, bytes.Repeat([]byte{2}, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	res, err := fs.CleanUntil(fs.CleanSegments() + 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	buf := make([]byte, 4096)
	n, err := fs.Read("/b", 0, buf)
	if err != nil || n != 4096 || buf[0] != 2 {
		t.Fatalf("reused-ino file corrupted after clean: n=%d err=%v", n, err)
	}
}

func TestCheckpointIntervalTriggers(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 2 * sim.Second
	_, fs := newPair(t, 32<<20, cfg)
	base := fs.Stats().Checkpoints
	// Writing 6 MB at ~1.3 MB/s of disk plus CPU time advances the
	// simulated clock well past several intervals.
	payload := bytes.Repeat([]byte{4}, 64<<10)
	if err := fs.Create("/big"); err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < 6<<20; off += int64(len(payload)) {
		if err := fs.Write("/big", off, payload); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil { // advances the clock
			t.Fatal(err)
		}
	}
	if fs.Stats().Checkpoints <= base {
		t.Fatal("no periodic checkpoint occurred")
	}
}

// TestWritebackAgeTriggersSegmentWrite holds the age trigger of
// §4.3.5: a dirty block younger than cache.WritebackAge stays in the
// cache, and the first operation after it reaches that age writes a
// unit. The checkpoint interval is pushed out of the way so that only
// the age can trigger the write.
func TestWritebackAgeTriggersSegmentWrite(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 10 * cache.WritebackAge
	_, fs := newPair(t, 32<<20, cfg)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	base := fs.Stats().UnitsWritten
	t0 := fs.Clock().Now() // no block is dirty before t0
	if err := fs.Write("/f", 0, bytes.Repeat([]byte{5}, 4096)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	fs.Clock().Advance(cache.WritebackAge - 10*sim.Millisecond - fs.Clock().Now().Sub(t0))
	if _, err := fs.Read("/f", 0, buf); err != nil {
		t.Fatal(err)
	}
	if age := fs.Clock().Now().Sub(t0); age >= cache.WritebackAge {
		t.Fatalf("the read took the block to age %v, past %v", age, cache.WritebackAge)
	}
	if got := fs.Stats().UnitsWritten; got != base {
		t.Fatalf("%d units written while the block was younger than %v", got-base, cache.WritebackAge)
	}
	fs.Clock().Advance(cache.WritebackAge)
	if _, err := fs.Read("/f", 0, buf); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().UnitsWritten == base {
		t.Fatal("no unit written at the first operation past the write-back age")
	}
}

func TestDropCaches(t *testing.T) {
	_, fs := newPair(t, 32<<20, testConfig())
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, bytes.Repeat([]byte{1}, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.DropCaches()
	before := fs.Disk().Stats().Reads
	buf := make([]byte, 64<<10)
	if _, err := fs.Read("/f", 0, buf); err != nil {
		t.Fatal(err)
	}
	if fs.Disk().Stats().Reads == before {
		t.Fatal("read after DropCaches hit no disk")
	}
}

func TestAtimeInImapDoesNotMoveInode(t *testing.T) {
	_, fs := newPair(t, 32<<20, testConfig())
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	unitsBefore := fs.Stats().UnitsWritten
	// Reads update atime...
	fi1, _ := fs.Stat("/f")
	buf := make([]byte, 1)
	if _, err := fs.Read("/f", 0, buf); err != nil {
		t.Fatal(err)
	}
	fi2, _ := fs.Stat("/f")
	if fi2.Atime < fi1.Atime {
		t.Fatal("atime went backwards")
	}
	// ...but a sync after pure reads writes no inodes (the atime
	// lives in the imap, which is logged only at checkpoints).
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().UnitsWritten != unitsBefore {
		t.Fatal("reading a file caused log writes (inode moved on read)")
	}
}

func TestLargeFileRandomWritesStaySequentialOnDisk(t *testing.T) {
	cfg := testConfig()
	_, fs := newPair(t, 64<<20, cfg)
	if err := fs.Create("/big"); err != nil {
		t.Fatal(err)
	}
	// Pre-size the file.
	if err := fs.Write("/big", 8<<20-4096, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	var events []disk.Event
	fs.Disk().SetTracer(tracerFunc(func(ev disk.Event) { events = append(events, ev) }))
	// Random-offset writes.
	for i := 0; i < 256; i++ {
		off := int64((i*2654435761)%(8<<20-4096)) / 4096 * 4096
		if err := fs.Write("/big", off, bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	var writes, seq int
	for _, ev := range events {
		if ev.Kind == disk.OpWrite {
			writes++
			if ev.Sequential {
				seq++
			}
		}
	}
	if writes == 0 {
		t.Fatal("no writes issued")
	}
	// Random file writes become sequential log writes: nearly all
	// transfers continue where the last ended.
	if float64(seq) < 0.5*float64(writes) {
		t.Fatalf("only %d of %d log writes were sequential", seq, writes)
	}
}

// TestFsyncFileSelective: FsyncFile persists one file without flushing
// the rest of the cache, and the file survives a crash via
// roll-forward.
func TestFsyncFileSelective(t *testing.T) {
	cfg := testConfig()
	d, fs := newPair(t, 32<<20, cfg)
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/b"); err != nil {
		t.Fatal(err)
	}
	wantA := bytes.Repeat([]byte{0xAA}, 20000)
	if err := fs.Write("/a", 0, wantA); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/b", 0, bytes.Repeat([]byte{0xBB}, 20000)); err != nil {
		t.Fatal(err)
	}
	unitsBefore := fs.Stats().UnitsWritten
	if err := fs.FsyncFile("/a"); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().UnitsWritten == unitsBefore {
		t.Fatal("FsyncFile wrote nothing")
	}
	// /b's data blocks must still be dirty (not flushed): fsyncing /b
	// now writes every one of them.
	blocksBefore := fs.Stats().BlocksWritten
	if err := fs.FsyncFile("/b"); err != nil {
		t.Fatal(err)
	}
	if n := fs.Stats().BlocksWritten - blocksBefore; n < int64(20000/cfg.BlockSize) {
		t.Fatalf("FsyncFile(/b) wrote %d blocks: FsyncFile(/a) flushed unrelated file /b too", n)
	}
	// Crash: /a's DATA is on disk, but without its directory entry
	// (the root dir block was not flushed) the file may be
	// unreachable — that is UNIX fsync semantics. Sync the dir via
	// full Sync for the recoverability check instead.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs2, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(wantA))
	n, err := fs2.Read("/a", 0, got)
	if err != nil || n != len(wantA) || !bytes.Equal(got, wantA) {
		t.Fatalf("fsynced file lost: n=%d err=%v", n, err)
	}
}

// TestConcurrentAccess exercises the FS mutex: goroutines operate on
// disjoint directories concurrently; all operations must succeed and
// the final state must be consistent. Run with -race to validate the
// locking.
func TestConcurrentAccess(t *testing.T) {
	_, fs := newPair(t, 64<<20, testConfig())
	const workers, filesEach = 8, 40
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		//lfslint:allow nogoroutine this test deliberately exercises the external mutex under real concurrency; simulated results are not read until all workers join
		go func() {
			dir := fmt.Sprintf("/w%d", w)
			if err := fs.Mkdir(dir); err != nil {
				errCh <- err
				return
			}
			payload := bytes.Repeat([]byte{byte(w)}, 2048)
			for i := 0; i < filesEach; i++ {
				p := fmt.Sprintf("%s/f%d", dir, i)
				if err := fs.Create(p); err != nil {
					errCh <- err
					return
				}
				if err := fs.Write(p, 0, payload); err != nil {
					errCh <- err
					return
				}
				buf := make([]byte, len(payload))
				if _, err := fs.Read(p, 0, buf); err != nil {
					errCh <- err
					return
				}
				if i%3 == 0 {
					if err := fs.Remove(p); err != nil {
						errCh <- err
						return
					}
				}
			}
			errCh <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("problems after concurrent workload: %v", rep.Problems)
	}
	wantFiles := workers * (filesEach - (filesEach+2)/3)
	if rep.Files != wantFiles {
		t.Fatalf("found %d files, want %d", rep.Files, wantFiles)
	}
}

// TestRollForwardAcrossSegments: post-checkpoint writes spanning
// several segments must replay across the segment boundaries.
func TestRollForwardAcrossSegments(t *testing.T) {
	cfg := testConfig()
	cfg.SegmentSize = 256 << 10 // force multiple segments quickly
	cfg.CacheBlocks = 512
	d, fs := newPair(t, 32<<20, cfg)
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// ~1.5 MB of files after the checkpoint: at least 6 segments of
	// log, synced but never checkpointed.
	payload := bytes.Repeat([]byte{0x7E}, 8192)
	for i := 0; i < 190; i++ {
		p := fmt.Sprintf("/rf%03d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	sealed := fs.Stats().SegmentsSealed
	if sealed < 3 {
		t.Fatalf("workload sealed only %d segments; test needs several", sealed)
	}
	fs.Crash()
	fs2, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Stats().RollForwardUnits == 0 {
		t.Fatal("no roll-forward happened")
	}
	buf := make([]byte, 8192)
	for i := 0; i < 190; i += 17 {
		p := fmt.Sprintf("/rf%03d", i)
		n, err := fs2.Read(p, 0, buf)
		if err != nil || n != 8192 || !bytes.Equal(buf, payload) {
			t.Fatalf("%s not recovered across segment boundary: n=%d err=%v", p, n, err)
		}
	}
	rep, err := fs2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("problems after multi-segment roll-forward: %v", rep.Problems)
	}
}

// TestImapSpansMultipleBlocks: enough files that the inode map needs
// several blocks, all of which must survive checkpoint and remount.
func TestImapSpansMultipleBlocks(t *testing.T) {
	cfg := testConfig() // 4096 inodes -> ~25 imap blocks
	d, fs := newPair(t, 64<<20, cfg)
	const files = 800 // spans several imap blocks (170 entries each)
	for i := 0; i < files; i++ {
		if err := fs.Create(fmt.Sprintf("/f%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := fs2.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != files {
		t.Fatalf("recovered %d files, want %d", len(entries), files)
	}
	// Every inode must be reachable through the multi-block map.
	for i := 0; i < files; i += 97 {
		if _, err := fs2.Stat(fmt.Sprintf("/f%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLFSDoubleIndirectLifecycle exercises sparse files through the
// double-indirect pointer tree, partial truncation, and release.
func TestLFSDoubleIndirectLifecycle(t *testing.T) {
	_, fs := newPair(t, 64<<20, testConfig())
	if err := fs.Create("/sparse"); err != nil {
		t.Fatal(err)
	}
	bs := int64(4096)
	apb := int64(1024) // addrs per 4K block
	offsets := []int64{
		0,                           // direct
		(12 + 9) * bs,               // single indirect
		(12 + apb + 2) * bs,         // double indirect, outer 0
		(12 + apb + apb + 5) * bs,   // outer 1
		(12 + apb + 3*apb + 9) * bs, // outer 3
	}
	for i, off := range offsets {
		if err := fs.Write("/sparse", off, bytes.Repeat([]byte{byte(i + 1)}, 4096)); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.DropCaches()
	buf := make([]byte, 4096)
	for i, off := range offsets {
		n, err := fs.Read("/sparse", off, buf)
		if err != nil || n != 4096 || buf[0] != byte(i+1) {
			t.Fatalf("read at %d: n=%d b=%d err=%v", off, n, buf[0], err)
		}
	}
	// Hole in the double-indirect region.
	n, err := fs.Read("/sparse", (12+apb+100)*bs, buf)
	if err != nil || n != 4096 {
		t.Fatalf("hole read: %d %v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	// Partial truncate: keep outer slot 0, drop outer 1 and 3.
	if err := fs.Truncate("/sparse", (12+2*apb)*bs); err != nil {
		t.Fatal(err)
	}
	n, err = fs.Read("/sparse", offsets[2], buf)
	if err != nil || n != 4096 || buf[0] != 3 {
		t.Fatalf("outer-0 lost by truncate: n=%d b=%d err=%v", n, buf[0], err)
	}
	// Truncate below the single-indirect boundary drops everything
	// indirect.
	if err := fs.Truncate("/sparse", 12*4096); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("problems after double-indirect truncation: %v", rep.Problems)
	}
	if err := fs.Remove("/sparse"); err != nil {
		t.Fatal(err)
	}
}

// TestLFSConfigValidation pins the config validator.
func TestLFSConfigValidation(t *testing.T) {
	base := testConfig()
	cases := []func(*core.Config){
		func(c *core.Config) { c.BlockSize = 1000 },
		func(c *core.Config) { c.SegmentSize = c.BlockSize },
		func(c *core.Config) { c.SegmentSize = 1<<20 + 1 },
		func(c *core.Config) { c.MaxInodes = 2 },
		func(c *core.Config) { c.CacheBlocks = 2 },
		func(c *core.Config) { c.CheckpointInterval = 0 },
		func(c *core.Config) { c.MinLiveFraction = 0 },
		func(c *core.Config) { c.MinLiveFraction = 1.5 },
		func(c *core.Config) { c.MaxLiveFraction = 0 },
		func(c *core.Config) { c.MaxLiveFraction = 1.0 },
		func(c *core.Config) { c.MIPS = -1 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestCleanOncePublic drives the public single-step cleaner.
func TestCleanOncePublic(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 128
	_, fs := newPair(t, 16<<20, cfg)
	for i := 0; i < 400; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, bytes.Repeat([]byte{1}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := fs.Remove(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	before := fs.CleanSegments()
	res, err := fs.CleanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsCleaned < 1 || fs.CleanSegments() <= before {
		t.Fatalf("CleanOnce reclaimed nothing: %+v", res)
	}
}

func TestSteadyStateAllocs(t *testing.T) {
	fstest.RunSteadyStateAllocs(t, newFS(t, 64<<20))
}

// TestCommitAllocs: once warm, a write and an fsync of it allocate
// nothing, with or without group commit; the inode rides the commit's
// summary block.
func TestCommitAllocs(t *testing.T) {
	for _, group := range []bool{false, true} {
		cfg := testConfig()
		cfg.GroupCommit = group
		_, fs := newPair(t, 64<<20, cfg)
		if err := fs.Create("/f"); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4<<10)
		i := 0
		commit := func() {
			buf[0] = byte(i)
			if err := fs.Write("/f", int64(i%8)*int64(len(buf)), buf); err != nil {
				t.Fatal(err)
			}
			if err := fs.FsyncFile("/f"); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for range 64 {
			commit()
		}
		if n := testing.AllocsPerRun(200, commit); n != 0 {
			t.Errorf("group commit %v: a 4 KB write and its fsync: %v allocs, want 0", group, n)
		}
	}
}
