package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/vfs"
)

// Tests of the cleaner's relocation list: live blocks move victim →
// staging → cold head without entering the block cache, through the one
// write path, and what a pass took from its victims never outlives it.

// loggedUnit is a log unit found by walking a segment with the unit
// reader on the medium, below the time model.
type loggedUnit struct {
	logUnit
	seg, blk int
}

// unitsSince returns the units of seg that carry a serial of at least
// since, in log order. A reused segment keeps older units behind its
// tail; the serial filters them out.
func unitsSince(t testing.TB, fs *FS, seg int, since uint64) []loggedUnit {
	t.Helper()
	raw := make([]byte, fs.sb.SegmentSize)
	must(t, fs.d.Store().ReadAt(raw, fs.segFirstSector(seg)*512))
	var units []loggedUnit
	for blk := 0; blk < fs.cfg.blocksPerSegment(); {
		u, err := readUnit(raw, blk, fs.cfg.BlockSize, nil)
		if err != nil {
			break
		}
		if u.Serial >= since {
			units = append(units, loggedUnit{u, seg, blk})
		}
		blk = u.end
	}
	return units
}

// writtenSince returns every unit of the log with a serial of at least
// since, in serial order.
func writtenSince(t testing.TB, fs *FS, since uint64) []loggedUnit {
	t.Helper()
	var units []loggedUnit
	for seg := range fs.usage {
		if fs.usage[seg].State != segClean {
			units = append(units, unitsSince(t, fs, seg, since)...)
		}
	}
	for i := 1; i < len(units); i++ { // a handful: insertion sort
		for j := i; j > 0 && units[j].Serial < units[j-1].Serial; j-- {
			units[j], units[j-1] = units[j-1], units[j]
		}
	}
	return units
}

// liveDataRefs walks the victim's summaries and returns, in log order,
// the data blocks its cleaning has to list: current by inode map version
// and inode walk, and not dirty in the cache.
func liveDataRefs(t testing.TB, fs *FS, victim int) []cache.Key {
	t.Helper()
	var keys []cache.Key
	for _, u := range unitsSince(t, fs, victim, 0) {
		for j, ref := range u.refs {
			if ref.Kind != kindData {
				continue
			}
			if e := fs.imap.get(ref.Ino); !e.Allocated || e.Version != ref.Version {
				continue
			}
			in, err := fs.getInode(ref.Ino)
			must(t, err)
			cur, err := fs.blockAddrOf(in, ref.ID)
			must(t, err)
			key := dataKey(ref.Ino, ref.ID)
			if b := fs.bc.Peek(key); cur == layout.DiskAddr(fs.blockSector(victim, u.blk+u.SumBlocks+j)) && (b == nil || !b.Dirty()) {
				keys = append(keys, key)
			}
		}
	}
	return keys
}

// cleanVictims runs one cleaner pass over the given victims and returns
// what it added to the cleaner's counters.
func cleanVictims(fs *FS, victims ...int) (CleanResult, error) {
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	before := fs.stats
	err := fs.cleanBatch(victims)
	return fs.stats.cleanSince(before), err
}

// blockOf returns the inode of path and the address of its block lbn.
func blockOf(t testing.TB, fs *FS, path string, lbn int64) (*layout.Inode, layout.DiskAddr) {
	t.Helper()
	in, err := fs.LookupLocked(path)
	must(t, err)
	addr, err := fs.blockAddrOf(in, lbn)
	must(t, err)
	return in, addr
}

// TestRelocationByCacheState: what the cleaner does with a live data
// block depends on the block cache alone. Nobody has it cached: it is
// relocated without entering the cache. A clean copy is cached: that
// copy is relocated, once, to the cold stream, and stays cached. A dirty
// copy is cached: it is newer application data, goes out in the hot
// stream, and its bytes are what a remount finds.
func TestRelocationByCacheState(t *testing.T) {
	path := pathOf(1)
	old := bytes.Repeat([]byte{1}, 8192)

	setup := func(t *testing.T) (fs *FS, ino layout.Ino, victim int, since uint64) {
		fs = fragmentedFS(t)
		fs.DropCaches()
		in, addr := blockOf(t, fs, path, 0)
		victim = fs.segOf(addr)
		if fs.usage[victim].State != segDirty {
			t.Fatal("the file's segment is not cleanable; test setup is wrong")
		}
		return fs, in.Ino, victim, fs.writeSerial
	}
	// unitOf returns the one unit written since that holds block 0 of ino.
	unitOf := func(t *testing.T, fs *FS, ino layout.Ino, since uint64) loggedUnit {
		var found []loggedUnit
		for _, u := range writtenSince(t, fs, since) {
			for _, ref := range u.refs {
				if ref.Kind == kindData && ref.Ino == ino && ref.ID == 0 {
					found = append(found, u)
				}
			}
		}
		if len(found) != 1 {
			t.Fatalf("block 0 of inode %d was logged %d times by the pass, want once", ino, len(found))
		}
		return found[0]
	}
	readBack := func(t *testing.T, fs *FS, want []byte) {
		got := make([]byte, len(want))
		if _, err := fs.Read(path, 0, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read after the clean: %v, first byte %#x want %#x", err, got[0], want[0])
		}
	}

	t.Run("absent", func(t *testing.T) {
		fs, ino, victim, since := setup(t)
		inserted := fs.bc.Stats().Inserted
		res, err := cleanVictims(fs, victim)
		must(t, err)
		if res.LiveCopied == 0 || fs.bc.Stats().Inserted != inserted {
			t.Fatalf("pass copied %d blocks and inserted %d into the cache, want some and none",
				res.LiveCopied, fs.bc.Stats().Inserted-inserted)
		}
		if fs.bc.Peek(dataKey(ino, 0)) != nil {
			t.Fatal("the relocated block entered the cache")
		}
		if u := unitOf(t, fs, ino, since); u.Class != classCold {
			t.Fatalf("relocated in a %v unit, want cold", u.Class)
		}
		must(t, fs.Checkpoint())
		fs.DropCaches()
		if _, addr := blockOf(t, fs, path, 0); fs.segOf(addr) == victim {
			t.Fatal("the block still lives in the victim")
		}
		readBack(t, fs, old)
	})

	t.Run("clean", func(t *testing.T) {
		fs, ino, victim, since := setup(t)
		readBack(t, fs, old) // caches both blocks, clean
		res, err := cleanVictims(fs, victim)
		must(t, err)
		b := fs.bc.Peek(dataKey(ino, 0))
		if res.LiveCopied == 0 || b == nil || b.Dirty() || !bytes.Equal(b.Data, old[:4096]) {
			t.Fatalf("after the pass the cached copy is %v, want still cached, clean and intact", b)
		}
		if u := unitOf(t, fs, ino, since); u.Class != classCold {
			t.Fatalf("relocated in a %v unit, want cold", u.Class)
		}
		if _, addr := blockOf(t, fs, path, 0); fs.segOf(addr) == victim {
			t.Fatal("the block still lives in the victim")
		}
	})

	t.Run("dirty", func(t *testing.T) {
		fs, ino, victim, since := setup(t)
		newer := bytes.Repeat([]byte{0xEE}, 4096)
		must(t, fs.Write(path, 0, newer))
		if b := fs.bc.Peek(dataKey(ino, 0)); b == nil || !b.Dirty() {
			t.Fatal("the overwrite is not dirty in the cache; test setup is wrong")
		}
		_, err := cleanVictims(fs, victim)
		must(t, err)
		if u := unitOf(t, fs, ino, since); u.Class != classHot {
			t.Fatalf("newer application data went out in a %v unit, want hot", u.Class)
		}
		must(t, fs.Checkpoint())
		d, cfg := fs.d, fs.cfg
		fs.Crash()
		fs, err = Mount(d, cfg)
		must(t, err)
		readBack(t, fs, append(append([]byte{}, newer...), old[4096:]...))
	})
}

// TestColdStreamKeepsReviveOrder: a batch of victims whose live blocks
// are absent from, clean in and dirty in the cache writes its cold data
// stream in the order the victims' summaries list those blocks, victim
// by victim — the order the dirty list gave when every revived block
// went through it.
func TestColdStreamKeepsReviveOrder(t *testing.T) {
	fs := fragmentedFS(t)
	fs.DropCaches()
	buf := make([]byte, 8192)
	for _, i := range []int{3, 9, 21} { // clean cached copies
		_, err := fs.Read(pathOf(i), 0, buf)
		must(t, err)
	}
	must(t, fs.Write(pathOf(5), 4096, bytes.Repeat([]byte{0xEE}, 4096))) // a dirty one
	batch := fs.selectBatch(8)
	if len(batch) < 3 {
		t.Fatalf("batch %v, want several victims", batch)
	}
	var want []cache.Key
	for _, seg := range batch {
		want = append(want, liveDataRefs(t, fs, seg)...)
	}
	since := fs.writeSerial
	_, err := cleanVictims(fs, batch...)
	must(t, err)
	var got []cache.Key
	for _, u := range writtenSince(t, fs, since) {
		for _, ref := range u.refs {
			if u.Class == classCold && ref.Kind == kindData {
				got = append(got, dataKey(ref.Ino, ref.ID))
			}
		}
	}
	if len(want) < 20 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cold stream order\n got %v\nwant %v", got, want)
	}
}

// TestFailedPassReleasesVictims: a pass that fails after it has revived a
// victim — here the second victim's segment read fails — keeps nothing of
// what it took: the list and the staging memory are empty (and, with
// poisoning on, scribbled over), every victim is still dirty with its
// blocks in place, no cleaner counter moved, and the next pass over the
// same victims succeeds. The cleaner counts a pass once, when it lands,
// so the write cost Stats give equals the one the recorder's activation
// records give (obs.CleanStats), however many passes failed first.
func TestFailedPassReleasesVictims(t *testing.T) {
	cache.DebugPoison = true
	defer func() { cache.DebugPoison = false }()
	fs := fragmentedFS(t)
	fs.cfg.Trace = obs.NewRecorder() // for the cleaner's activation records
	fs.bc.DropClean()                // the inodes stay in core: a pass reads segments only
	batch := append([]int(nil), fs.selectBatch(8)...)
	if len(batch) < 2 {
		t.Fatalf("batch %v, want at least two victims", batch)
	}
	injected := errors.New("injected read fault")
	fs.d.SetFaultPolicy(&disk.CrashPlan{ReadErrors: map[int64]error{2: injected}})
	res, err := cleanVictims(fs, batch...)
	fs.d.SetFaultPolicy(nil)
	if !errors.Is(err, injected) || len(fs.cl.stats) != 1 || fs.cl.stats[0].copied == 0 {
		t.Fatalf("pass: %+v, %v; want the first victim revived and the injected fault", fs.cl.stats, err)
	}
	if res != (CleanResult{}) {
		t.Fatalf("the failed pass moved the cleaner's counters by %+v, want none", res)
	}
	if len(fs.cl.moves) != 0 || len(fs.cl.staging) != 0 {
		t.Fatalf("the failed pass kept %d listed blocks and %d staged bytes", len(fs.cl.moves), len(fs.cl.staging))
	}
	for _, mem := range [][]byte{fs.cl.victim, fs.cl.staging[:cap(fs.cl.staging)]} {
		if !bytes.Equal(mem, bytes.Repeat([]byte{0xDB}, len(mem))) {
			t.Fatal("victim memory was not poisoned on the way out")
		}
	}
	for _, seg := range batch {
		if fs.usage[seg].State != segDirty {
			t.Fatalf("victim %d in state %d after the failed pass, want dirty", seg, fs.usage[seg].State)
		}
	}
	if rep, err := fs.Check(); err != nil || !rep.Ok() {
		t.Fatalf("check after the failed pass: %v %v", err, rep)
	}
	res, err = cleanVictims(fs, batch...)
	if err != nil || res.SegmentsCleaned != len(batch) {
		t.Fatalf("retry: %+v, %v; want all %d victims cleaned", res, err, len(batch))
	}
	must(t, fs.Checkpoint())
	snap := fs.StatsSnapshot()
	if got, want := snap.WriteCost(), snap.Trace.Clean.WriteCost; got != want || got == 0 {
		t.Fatalf("write cost from Stats %v, from the activation records %v; want them equal and the pass counted", got, want)
	}
	fs.DropCaches()
	for i := 1; i < 40; i += 2 {
		got := make([]byte, 8192)
		if _, err := fs.Read(pathOf(i), 0, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 8192)) {
			t.Fatalf("file %d after the retry: %v, first byte %#x", i, err, got[0])
		}
	}
}

// TestCleanerFailsOnFlippedDataBit: one bit flipped in a victim's payload
// fails the pass that would have copied it — under a freshly computed,
// valid checksum nothing would ever flag it again. Every unit is held to
// its summary's data checksum, so this holds for a flip in a live data
// block and for one in the inode-number field of a live record whose unit
// holds nothing else live: read without its own checksum, that slot looks
// like another inode's stale copy, and the segment used to be reclaimed
// with the only copy of the inode. The segment is not reclaimed, nothing
// is relocated, and the file still reads from the old address. A victim
// that fails its check is retried, not quarantined (ROADMAP item 2(a)):
// the next pass over it fails the same way, and no state records it.
func TestCleanerFailsOnFlippedDataBit(t *testing.T) {
	failsTwice := func(t *testing.T, fs *FS, victim int) {
		t.Helper()
		since, written := fs.writeSerial, fs.stats.BlocksWritten
		for pass := 1; pass <= 2; pass++ {
			res, err := cleanVictims(fs, victim)
			if err == nil || res.SegmentsCleaned != 0 {
				t.Fatalf("pass %d over a victim with a flipped bit: %+v, %v; want the pass to fail", pass, res, err)
			}
			if want := fmt.Sprintf("segment %d, unit at block", victim); !bytes.Contains([]byte(err.Error()), []byte(want)) || !errors.Is(err, errUnitData) {
				t.Fatalf("pass %d: error %q does not name %q or is no data mismatch", pass, err, want)
			}
			if fs.usage[victim].State != segDirty {
				t.Fatalf("pass %d: victim state %d, want still dirty", pass, fs.usage[victim].State)
			}
			if fs.writeSerial != since || fs.stats.BlocksWritten != written || len(fs.cl.moves) != 0 {
				t.Fatalf("pass %d: the failed pass wrote to the log or kept its list", pass)
			}
		}
	}

	t.Run("data block", func(t *testing.T) {
		fs := fragmentedFS(t)
		fs.DropCaches()
		path := pathOf(7)
		_, addr := blockOf(t, fs, path, 1)
		victim := fs.segOf(addr)
		must(t, fs.d.FlipBits(int64(addr), 100, 0x04))
		failsTwice(t, fs, victim)
		if _, cur := blockOf(t, fs, path, 1); cur != addr {
			t.Fatalf("the damaged block moved from %v to %v", addr, cur)
		}
		want := bytes.Repeat([]byte{7}, 8192)
		want[4096+100] ^= 0x04
		got := make([]byte, 8192)
		if _, err := fs.Read(path, 0, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read of the damaged file: %v; want its flipped bytes from the old address", err)
		}
	})

	t.Run("ino field", func(t *testing.T) {
		cfg := smallConfig()
		cfg.SegmentSize = 64 << 10
		fs := newTestFS(t, 8<<20, cfg)
		must(t, fs.Create("/keep"))
		must(t, fs.Create("/gone"))
		must(t, fs.Write("/gone", 0, make([]byte, 8192)))
		must(t, fs.Sync())
		fi, err := fs.Stat("/keep")
		must(t, err)
		e := *fs.imap.get(fi.Ino)
		victim := fs.segOf(e.Addr)
		// Kill everything else in the victim, then seal it.
		must(t, fs.Remove("/gone"))
		must(t, fs.Create("/filler"))
		for i := 0; fs.usage[victim].State != segDirty; i++ {
			must(t, fs.Write("/filler", int64(i)*8192, make([]byte, 8192)))
			must(t, fs.Sync())
		}
		must(t, fs.Remove("/filler"))
		must(t, fs.Checkpoint())
		if live := fs.usage[victim].Live; live != layout.InodeSize {
			t.Fatalf("victim holds %d live bytes, want only /keep's record; test setup is wrong", live)
		}
		must(t, fs.d.FlipBits(int64(e.Addr), int(e.Slot)*layout.InodeSize, 0x10))
		failsTwice(t, fs, victim)
		if cur := fs.imap.get(fi.Ino); cur.Addr != e.Addr || cur.Slot != e.Slot {
			t.Fatalf("the damaged record moved from %v/%d to %v/%d", e.Addr, e.Slot, cur.Addr, cur.Slot)
		}
		if after, err := fs.Stat("/keep"); err != nil || after.Ino != fi.Ino {
			t.Fatalf("Stat after the failed passes: %+v, %v; want %+v", after, err, fi)
		}
	})
}

// TestPassMemoryIsBoundedByBudget: a batch of many nearly empty victims
// holds the one segment-sized read buffer and a relocation budget of
// staging, not a buffer per victim.
func TestPassMemoryIsBoundedByBudget(t *testing.T) {
	cfg := smallConfig()
	cfg.SegmentSize = 64 << 10
	cfg.CacheBlocks = 64
	fs := newTestFS(t, 8<<20, cfg)
	for i := 0; i < 120; i++ {
		must(t, fs.Create(pathOf(i)))
		must(t, fs.Write(pathOf(i), 0, bytes.Repeat([]byte{byte(i)}, 8192)))
	}
	must(t, fs.Sync())
	for i := 0; i < 120; i++ {
		if i%8 != 0 {
			must(t, fs.Remove(pathOf(i)))
		}
	}
	must(t, fs.Sync())
	fs.DropCaches()
	batch := fs.selectBatch(64)
	res, err := cleanVictims(fs, batch...)
	must(t, err)
	if len(batch) < 8 || res.LiveCopied < len(batch) {
		t.Fatalf("batch %v copied %d blocks, want many victims with a little live data each", batch, res.LiveCopied)
	}
	held, bound := len(fs.cl.victim)+cap(fs.cl.staging), (1+relocationSegments)*cfg.SegmentSize
	if held > bound {
		t.Fatalf("a pass over %d victims holds %d bytes, want at most budget + one segment = %d", len(batch), held, bound)
	}
}

// liveBySegment recounts, from the inode map and every allocated inode,
// the bytes each segment holds that something still points at: inode
// records, data blocks, indirect blocks and inode map blocks — what the
// writer credits and the usage array counts.
func liveBySegment(t testing.TB, fs *FS) []int64 {
	t.Helper()
	live := make([]int64, len(fs.usage))
	bs := int64(fs.cfg.BlockSize)
	count := func(a layout.DiskAddr, n int64) {
		if !a.IsNil() {
			live[fs.segOf(a)] += n
		}
	}
	for _, a := range fs.imap.blockAddrs {
		count(a, bs)
	}
	for ino, high := layout.RootIno, fs.imap.highIno(); ino <= high; ino++ {
		e := fs.imap.peek(ino)
		if !e.Allocated {
			continue
		}
		count(e.Addr, layout.InodeSize)
		in, err := fs.getInode(ino)
		must(t, err)
		blocks := layout.BlocksForSize(in.Size, fs.cfg.BlockSize)
		for lbn := int64(0); lbn < blocks; lbn++ {
			a, err := fs.blockAddrOf(in, lbn)
			must(t, err)
			count(a, bs)
		}
		count(in.Indirect, bs)
		count(in.DoubleIndirect, bs)
		if !in.DoubleIndirect.IsNil() {
			for k := int64(0); k < int64(fs.cfg.BlockSize/layout.AddrSize); k++ {
				a, err := fs.indirectAddrOf(in, layout.IndDoubleInner+k)
				must(t, err)
				count(a, bs)
			}
		}
	}
	return live
}

// TestUsageMatchesRecount is ROADMAP item 4(a)'s audit as a test: after
// lfsperf's cleaning workload in small — a log filled to 0.80 with 4 KB
// files, Zipf overwrites synced every 64, enough of them that the cleaner
// turns the log over several times, no crash — each segment's live
// count equals a recount from the inodes, and so does their total, and
// Check agrees; and the cleaner's memory never grew past budget + one
// segment.
func TestUsageMatchesRecount(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = CleanCostBenefit
	cfg.SegmentSize = 64 << 10
	cfg.CacheBlocks = 64
	cfg.MaxInodes = 2048
	cfg.MaxLiveFraction = 0.92
	cfg.CleanThresholdSegments = 8
	cfg.CleanTargetSegments = 12
	fs := newTestFS(t, 8<<20, cfg)
	files := int(fs.LogCapacity() * 4 / 5 / 4096)
	name := func(i int) string { return fmt.Sprintf("/d%d/f%04d", i%8, i) }
	for d := 0; d < 8; d++ {
		must(t, fs.Mkdir(fmt.Sprintf("/d%d", d)))
	}
	rng := rand.New(rand.NewSource(42))
	block := make([]byte, 4096)
	for i := 0; i < files; i++ {
		must(t, fs.Create(name(i)))
		rng.Read(block)
		must(t, fs.Write(name(i), 0, block))
	}
	must(t, fs.Sync())
	zipf := rand.NewZipf(rng, 1.1, 8, uint64(files-1))
	for i := 0; i < 3*files; i++ {
		rng.Read(block)
		must(t, fs.Write(name(int(zipf.Uint64())), 0, block))
		if (i+1)%64 == 0 {
			must(t, fs.Sync())
		}
	}
	must(t, fs.Checkpoint())
	if fs.stats.SegmentsCleaned < int64(len(fs.usage)) {
		t.Fatalf("the cleaner reclaimed %d segments, want the log of %d turned over", fs.stats.SegmentsCleaned, len(fs.usage))
	}
	checkBooks(t, fs)
	// With the books exact, no pass was handed more than its budget:
	// the staging span is the size it was made.
	if held, bound := len(fs.cl.victim)+cap(fs.cl.staging), (1+relocationSegments)*cfg.SegmentSize; held != bound {
		t.Errorf("after %d passes the cleaner holds %d bytes, want the %d it started with", fs.stats.CleanerRuns, held, bound)
	}
}

// checkBooks holds the usage array and the live-byte total to
// liveBySegment's recount, and the volume to a clean Check, whose report
// it returns.
func checkBooks(t *testing.T, fs *FS) *vfs.CheckReport {
	t.Helper()
	var total int64
	for seg, want := range liveBySegment(t, fs) {
		total += want
		if got := fs.usage[seg].Live; got != want {
			t.Errorf("segment %d (state %d): usage says %d live bytes, the inodes say %d", seg, fs.usage[seg].State, got, want)
		}
	}
	if fs.liveBytes != total {
		t.Errorf("live-byte total %d, recount %d (%+.1f %%)", fs.liveBytes, total, 100*float64(fs.liveBytes-total)/float64(total))
	}
	rep, err := fs.Check()
	must(t, err)
	if !rep.Ok() {
		t.Errorf("check: %q", rep.Problems)
	}
	return rep
}

// TestPassWritesItsRecordsCold: with segregation on, the inode records a
// cleaner pass itself dirties — live records it revives from its victim,
// and the files whose direct pointers its cold relocations move — go out
// in the one cold unit that holds the relocated data, and that segment
// keeps the victim's age. A file whose inode the application dirtied
// before the pass keeps its record in the hot stream.
func TestPassWritesItsRecordsCold(t *testing.T) {
	fs := fragmentedFS(t)
	fs.DropCaches()
	app, addr := blockOf(t, fs, pathOf(7), 0)
	victim := fs.segOf(addr)
	srcAge := fs.usage[victim].Age
	must(t, fs.Truncate(pathOf(7), 8192)) // its size as it was: only the inode is dirty
	if !fs.inodes.isDirty(app.Ino) || fs.bc.DirtyCount() != 0 {
		t.Fatal("the truncate did not dirty the inode alone; test setup is wrong")
	}
	// The pass's records: files it relocates data of, and live records it
	// revives; the application's file is neither.
	moved, pass := map[layout.Ino]bool{}, map[layout.Ino]bool{}
	keys := liveDataRefs(t, fs, victim)
	for _, k := range keys {
		moved[k.Ino], pass[k.Ino] = true, true
	}
	revived := 0
	for ino := layout.Ino(1); ino <= fs.imap.maxIno(); ino++ {
		if e := fs.imap.peek(ino); e.Allocated && fs.segOf(e.Addr) == victim && !moved[ino] {
			pass[ino] = true
			revived++
		}
	}
	if !moved[app.Ino] || len(moved) < 3 || revived == 0 {
		t.Fatalf("victim %d holds data of %d files and %d other live records, want the application's file among several, and some",
			victim, len(moved), revived)
	}
	delete(pass, app.Ino)

	since := fs.writeSerial
	_, err := cleanVictims(fs, victim)
	must(t, err)
	units := writtenSince(t, fs, since)
	// unitOf returns the unit written since that holds the block of kind
	// k at sector a, or nil.
	unitOf := func(a layout.DiskAddr, k blockKind) *loggedUnit {
		for i, u := range units {
			for j, ref := range u.refs {
				if ref.Kind == k && u.seg == fs.segOf(a) && fs.blockSector(u.seg, u.blk+u.SumBlocks+j) == int64(fs.blockStart(u.seg, a)) {
					return &units[i]
				}
			}
		}
		return nil
	}
	name := func(u *loggedUnit) string {
		if u == nil {
			return "no unit written since"
		}
		return fmt.Sprintf("the %v unit at serial %d", u.Class, u.Serial)
	}
	_, first := blockOf(t, fs, pathOf(5), 0)
	cold := unitOf(first, kindData)
	if cold == nil || cold.Class != classCold {
		t.Fatalf("relocated data went to %s, want a cold unit", name(cold))
	}
	for _, k := range keys {
		in, err := fs.getInode(k.Ino)
		must(t, err)
		a, err := fs.blockAddrOf(in, k.Off)
		must(t, err)
		if unitOf(a, kindData) != cold {
			t.Errorf("block %d of inode %d relocated outside %s", k.Off, k.Ino, name(cold))
		}
	}
	for ino := layout.Ino(1); ino <= fs.imap.maxIno(); ino++ {
		if u := unitOf(fs.imap.peek(ino).Addr, kindInodes); pass[ino] && u != cold {
			t.Errorf("inode %d's record went to %s, want %s", ino, name(u), name(cold))
		}
	}
	if age := fs.usage[cold.seg].Age; age != srcAge {
		t.Errorf("the cold segment's age is %d, want the victim's %d", age, srcAge)
	}
	if u := unitOf(fs.imap.peek(app.Ino).Addr, kindInodes); u == nil || u.Class != classHot {
		t.Errorf("the application's dirty inode went to %s, want a hot unit", name(u))
	}
}
