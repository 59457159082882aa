package core

import (
	"fmt"
	"runtime"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

// mallocs returns the heap objects and bytes f allocates, on one P with
// the collector's own bookkeeping out of the way (testing.AllocsPerRun's
// method, extended to bytes).
func mallocs(f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// bigFile creates path holding nBlocks blocks of recognisable data,
// written sequentially and flushed, so it lies contiguous in the log.
func bigFile(t testing.TB, fs *FS, path string, nBlocks int) *layout.Inode {
	t.Helper()
	must(t, fs.Create(path))
	chunk := make([]byte, 16*fs.cfg.BlockSize)
	for off := 0; off < nBlocks; off += 16 {
		for i := range chunk {
			chunk[i] = byte(off + i/fs.cfg.BlockSize + i)
		}
		must(t, fs.Write(path, int64(off*fs.cfg.BlockSize), chunk))
	}
	must(t, fs.Sync())
	in, err := fs.LookupLocked(path)
	must(t, err)
	return in
}

// seqReader reads path's blocks in order, two blocks a call like the
// paper's 8 KB reads, wrapping at the end of the file.
type seqReader struct {
	fs   *FS
	path string
	in   *layout.Inode
	off  int64
	buf  []byte
}

func (r *seqReader) read(t testing.TB, calls int) {
	for ; calls > 0; calls-- {
		if r.off >= int64(r.in.Size) {
			r.off = 0
		}
		n, err := r.fs.Read(r.path, r.off, r.buf)
		if err != nil || n != len(r.buf) {
			t.Fatalf("read at %d: n=%d err=%v", r.off, n, err)
		}
		r.off += int64(n)
	}
}

// missReader returns a reader over a file twice the size of a 1024-block
// cache, so a sequential scan misses on every block, warmed until every
// Add evicts.
func missReader(t testing.TB) *seqReader {
	cfg := smallConfig()
	cfg.CacheBlocks = 1024
	fs := newTestFS(t, 64<<20, cfg)
	r := &seqReader{fs: fs, path: "/big", in: bigFile(t, fs, "/big", 2048), buf: make([]byte, 2*cfg.BlockSize)}
	r.read(t, 1024)
	return r
}

// TestSequentialReadMissAllocatesOnlyBlockHeaders pins the read path's
// steady state: a scan that misses on every block allocates the cache's
// slabs of Block headers (73 to a slab) and nothing else — no block
// buffer, no read-ahead span, no header of its own per block.
func TestSequentialReadMissAllocatesOnlyBlockHeaders(t *testing.T) {
	r := missReader(t)
	inserted := r.fs.bc.Stats().Inserted
	objects, bytes := mallocs(func() { r.read(t, 1024) })
	inserted = r.fs.bc.Stats().Inserted - inserted
	if inserted < 2048 {
		t.Fatalf("scan inserted %d blocks, want every one of 2048 to miss", inserted)
	}
	if objects > headerSlabs(inserted) {
		t.Errorf("scan of %d missing blocks allocated %d objects, want only slabs of Block headers", inserted, objects)
	}
	if perBlock := bytes / uint64(inserted); perBlock >= 128 {
		t.Errorf("scan allocated %d bytes per missing block, want a Block header's worth", perBlock)
	}
}

// headerSlabs bounds the allocations the cache makes for n insertions:
// one slab per 73 Block headers, counted generously.
func headerSlabs(n int64) uint64 { return uint64(n)/64 + 2 }

func BenchmarkReadMissSequential(b *testing.B) {
	r := missReader(b)
	b.SetBytes(int64(len(r.buf)))
	b.ReportAllocs()
	b.ResetTimer()
	r.read(b, b.N)
}

// BenchmarkFlush64Blocks is segment assembly: 64 dirty data blocks
// gathered, placed in the segment buffer behind their summary, their
// pointers redirected, and the unit issued.
func BenchmarkFlush64Blocks(b *testing.B) {
	fs := newTestFS(b, 64<<20, smallConfig())
	in := bigFile(b, fs, "/f", 64)
	data := make([]byte, 64*fs.cfg.BlockSize)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		must(b, fs.writeFile(in, 0, data))
		must(b, fs.flush(flushAll))
	}
}

// punchedFS returns a file system with 256 KB segments whose log holds
// one large file with every ninth block since overwritten. A tenth of
// each of the file's original segments was summary, inode and indirect
// blocks that died as the file grew, so that leaves them 0.80 live; the
// number of such victims is returned too.
func punchedFS(t testing.TB) (*FS, int) {
	cfg := smallConfig()
	cfg.SegmentSize = 256 << 10
	// Touch the whole memory store first, so cleaning measures the
	// cleaner and not the store's first-write chunk allocation.
	d := disk.NewMem(32<<20, sim.NewClock())
	zeros := make([]byte, 1<<20)
	for off := int64(0); off < d.Capacity(); off += int64(len(zeros)) {
		must(t, d.Store().WriteAt(zeros[:min(int64(len(zeros)), d.Capacity()-off)], off))
	}
	must(t, Format(d, cfg))
	fs, err := Mount(d, cfg)
	must(t, err)
	const nBlocks = 2048 // 8 MB: about 32 segments
	in := bigFile(t, fs, "/victims", nBlocks)
	block := make([]byte, cfg.BlockSize)
	for lbn := 0; lbn < nBlocks; lbn += 9 {
		must(t, fs.writeFile(in, int64(lbn*cfg.BlockSize), block))
	}
	must(t, fs.flush(flushAll))
	victims := 0
	for seg := range fs.usage {
		u := float64(fs.usage[seg].Live) / float64(cfg.SegmentSize)
		if fs.usage[seg].State == segDirty && u > 0.75 && u < 0.85 {
			victims++
		}
	}
	if victims < 16 {
		t.Fatalf("only %d segments are 0.80 live", victims)
	}
	return fs, victims
}

// BenchmarkCleanOnce is the cost per cleaned 256 KB victim that is 0.80
// live: the segment read, the liveness checks, the unit checksums, the
// listing of about fifty blocks, and its share of the relocation flush
// and the checkpoint. One CleanOnce nets one clean segment, which at
// this utilisation takes several victims, so b.N counts victims.
func BenchmarkCleanOnce(b *testing.B) {
	var fs *FS
	victims := 0
	b.ReportAllocs()
	b.ResetTimer()
	for cleaned := 0; cleaned < b.N; {
		if victims < 8 { // keep clear of the last, partly filled, segment
			b.StopTimer()
			fs, victims = punchedFS(b)
			b.StartTimer()
		}
		res, err := fs.CleanOnce()
		if err != nil || res.SegmentsCleaned == 0 {
			b.Fatalf("clean: %+v, %v", res, err)
		}
		cleaned += res.SegmentsCleaned
		victims -= res.SegmentsCleaned
	}
}

// dirtyInodesFS returns a file system holding 8192 one-block files, all
// flushed and all in core, and their inode numbers.
func dirtyInodesFS(t testing.TB) (*FS, []layout.Ino) {
	cfg := DefaultConfig()
	cfg.MaxInodes = 8192 + 64
	fs := newTestFS(t, 128<<20, cfg)
	inos := make([]layout.Ino, 0, 8192)
	block := make([]byte, cfg.BlockSize)
	for i := 0; i < cap(inos); i++ {
		path := fmt.Sprintf("/f%04d", i)
		must(t, fs.Create(path))
		must(t, fs.Write(path, 0, block))
		in, err := fs.LookupLocked(path)
		must(t, err)
		inos = append(inos, in.Ino)
	}
	must(t, fs.Sync())
	return fs, inos
}

// BenchmarkFlushDirtyInodes is batch 5 of the segment write at scale:
// 8192 dirty inodes gathered in ascending order, encoded 32 to a block,
// logged as one segment's worth of inode blocks, and their inode map
// entries redirected. The file system is rebuilt, off the clock, before
// the log runs out of clean segments, so no iteration runs the cleaner.
func BenchmarkFlushDirtyInodes(b *testing.B) {
	var fs *FS
	var inos []layout.Ino
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if fs == nil || fs.cleanCount < fs.cfg.cleanThreshold(int(fs.sb.Segments))+4 {
			fs, inos = dirtyInodesFS(b)
		}
		for _, ino := range inos {
			fs.markInodeDirty(ino)
		}
		b.StartTimer()
		must(b, fs.flush(flushAll))
	}
}

// BenchmarkReviveInodeBlock is the cleaner's liveness walk over one
// 32-slot inode block in which every other record is still current (the
// rest were rewritten elsewhere), all inodes in core: what each inode
// block of a victim costs before anything is copied.
func BenchmarkReviveInodeBlock(b *testing.B) {
	fs := newTestFS(b, 16<<20, smallConfig())
	per := fs.inodesPerBlock()
	inos := []layout.Ino{layout.RootIno}
	for i := 1; i < per; i++ { // with the root, one block's worth
		path := fmt.Sprintf("/f%02d", i)
		must(b, fs.Create(path))
		in, err := fs.LookupLocked(path)
		must(b, err)
		inos = append(inos, in.Ino)
	}
	must(b, fs.Sync())
	addr := fs.imap.get(layout.RootIno).Addr // slot 0: the block's first sector
	for i, ino := range inos {
		if i%2 == 1 {
			fs.markInodeDirty(ino)
		}
	}
	must(b, fs.flush(flushAll))
	blk := make([]byte, fs.cfg.BlockSize)
	//lfslint:allow iocause raw-device read below the FS, as the cleaner's segment read would deliver it; attribution is irrelevant here
	must(b, fs.d.ReadSectors(int64(addr), blk, disk.CauseOther, "test"))
	revive := func() int {
		live, err := fs.reviveBlock(blockRef{Kind: kindInodes}, addr, blk, fs.clock.Now())
		if err != nil || !live {
			b.Fatalf("reviveBlock: live=%v err=%v", live, err)
		}
		n := 0
		for _, ino := range inos {
			if fs.inodes.isDirty(ino) {
				n++
			}
		}
		return n
	}
	if n := revive(); n != per/2 {
		b.Fatalf("the walk found %d current records in the block, want %d of %d", n, per/2, per)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if live, err := fs.reviveBlock(blockRef{Kind: kindInodes}, addr, blk, 0); err != nil || !live {
			b.Fatal(live, err)
		}
	}
}

// TestReviveSegmentAllocatesNoBuffers pins the cleaner's read side: once the
// victim and staging memory exists, reviving a victim allocates nothing —
// not the segment-sized read buffer, not a summary's refs, and no cache
// block, header or buffer, for a live data block nobody had cached.
func TestReviveSegmentAllocatesNoBuffers(t *testing.T) {
	fs, _ := punchedFS(t)
	if err := fs.cleanUntil(fs.cleanCount + 1); err != nil { // allocates the victim and staging memory
		t.Fatal(err)
	}
	victim, ok := fs.selectVictim(nil)
	if !ok {
		t.Fatal("no second victim")
	}
	defer fs.releaseVictims()
	var copied int
	inserted := fs.bc.Stats().Inserted
	objects, bytes := mallocs(func() {
		var err error
		copied, _, err = fs.reviveSegment(victim)
		must(t, err)
	})
	if copied < 40 {
		t.Fatalf("victim had %d live blocks, want about 50", copied)
	}
	if inserted = fs.bc.Stats().Inserted - inserted; objects != 0 || inserted != 0 {
		t.Errorf("reviving %d blocks allocated %d objects (%d bytes) and inserted %d cache blocks, want none", copied, objects, bytes, inserted)
	}
}

// TestCleanBatchAllocatesNoTablesOfItsOwn pins the whole cleaner pass in
// its steady state — victim choice, liveness walk, relocation flush —
// to allocating nothing at all: the batch, the per-victim records, the
// summary refs, the relocation list and its staging bytes, the
// dirty-inode gather and the writer's batches all live in reused memory,
// and no live data block takes a cache header on its way through.
func TestCleanBatchAllocatesNoTablesOfItsOwn(t *testing.T) {
	fs, _ := punchedFS(t)
	for i := 0; i < 2; i++ { // sizes the victim memory, both heads and every scratch slice
		if err := fs.cleanUntil(fs.cleanCount + 1); err != nil {
			t.Fatal(err)
		}
	}
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	var batch []int
	before, inserted := fs.stats, fs.bc.Stats().Inserted
	objects, _ := mallocs(func() {
		batch = fs.selectBatch(4)
		must(t, fs.cleanBatch(batch))
	})
	res, inserted := fs.stats.cleanSince(before), fs.bc.Stats().Inserted-inserted
	if len(batch) < 2 || res.LiveCopied < 80 {
		t.Fatalf("pass cleaned %v and copied %d blocks, want a batch of several 0.80-live victims", batch, res.LiveCopied)
	}
	// The victims hold one file's blocks: its indirect blocks are the only
	// thing a pass may have to bring into the cache.
	if objects > headerSlabs(inserted) || inserted > 4 {
		t.Errorf("cleaning %d victims allocated %d objects and inserted %d cache blocks, want at most a slab for a few indirect blocks",
			len(batch), objects, inserted)
	}
}

// unitFixture is a 1 MB segment filled by one unit, its summary encoded
// with its payload's checksum.
func unitFixture() []byte {
	refs := make([]blockRef, 254)
	for i := range refs {
		refs[i] = blockRef{Kind: kindData, Ino: 7, ID: int64(i), Version: 3}
	}
	seg := make([]byte, 1<<20)
	h := summaryHeader{Serial: 9, NBlocks: len(refs), SumBlocks: 2, DataCRC: layout.DataChecksum(seg[2*4096:])}
	encodeSummary(h, refs, seg[:2*4096])
	return seg
}

// TestDecodeSummaryAllocatesOnlyRefs: the unit reader verifies the
// summary's checksum in place, so the refs slice is the only allocation,
// and a caller that brings its own (the cleaner) pays none.
func TestDecodeSummaryAllocatesOnlyRefs(t *testing.T) {
	seg := unitFixture()
	var scratch []blockRef
	for _, tc := range []struct {
		own  bool
		want float64
	}{{false, 1}, {true, 0}} {
		n := testing.AllocsPerRun(100, func() {
			var dst []blockRef
			if tc.own {
				dst = scratch[:0]
			}
			u, err := readUnit(seg, 0, 4096, dst)
			if err != nil || len(u.refs) != 254 {
				t.Fatalf("read: %d refs, %v", len(u.refs), err)
			}
			scratch = u.refs
		})
		if n > tc.want {
			t.Fatalf("readUnit, caller's slice %v: %v allocs, want <= %v", tc.own, n, tc.want)
		}
	}
}

func BenchmarkReadUnit(b *testing.B) {
	seg := unitFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := readUnit(seg, 0, 4096, nil); err != nil {
			b.Fatal(err)
		}
	}
}
