package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

// newTestFS builds a mounted FS on a fresh memory disk for white-box
// tests.
func newTestFS(t testing.TB, capacity int64, cfg Config) *FS {
	t.Helper()
	d := disk.NewMem(capacity, sim.NewClock())
	if err := Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxInodes = 1024
	return cfg
}

func TestSelectVictimGreedyPicksEmptiest(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	// Hand-craft the usage array.
	for i := range fs.usage {
		fs.usage[i].State = segClean
		fs.usage[i].Live = 0
	}
	fs.usage[fs.heads[classHot].seg].State = segActive
	seg := func(i int, live int64) {
		fs.usage[i].State = segDirty
		fs.usage[i].Live = live
	}
	segSize := int64(fs.sb.SegmentSize)
	seg(3, segSize/2)
	seg(5, segSize/10) // emptiest
	seg(7, segSize*9/10)
	victim, ok := fs.selectVictim(nil)
	if !ok || victim != 5 {
		t.Fatalf("greedy picked %d (ok=%v), want 5", victim, ok)
	}
}

func TestSelectVictimSkipsHighUtilization(t *testing.T) {
	cfg := smallConfig()
	cfg.MinLiveFraction = 0.80
	fs := newTestFS(t, 16<<20, cfg)
	for i := range fs.usage {
		fs.usage[i].State = segClean
	}
	fs.usage[fs.heads[classHot].seg].State = segActive
	segSize := int64(fs.sb.SegmentSize)
	fs.usage[2].State = segDirty
	fs.usage[2].Live = segSize * 85 / 100 // above MinLiveFraction
	if victim, ok := fs.selectVictim(nil); ok {
		t.Fatalf("picked %d despite utilization above the cutoff", victim)
	}
	fs.usage[2].Live = segSize * 70 / 100
	if _, ok := fs.selectVictim(nil); !ok {
		t.Fatal("did not pick a below-cutoff segment")
	}
}

func TestSelectVictimNeverPicksActiveOrClean(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	for i := range fs.usage {
		fs.usage[i].State = segClean
	}
	fs.usage[fs.heads[classHot].seg].State = segActive
	fs.usage[fs.heads[classHot].seg].Live = 0 // tempting but active
	if victim, ok := fs.selectVictim(nil); ok {
		t.Fatalf("picked %d from clean/active-only disk", victim)
	}
}

func TestSelectVictimCostBenefitPrefersOldCold(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = CleanCostBenefit
	fs := newTestFS(t, 16<<20, cfg)
	fs.clock.Advance(1000 * sim.Second)
	for i := range fs.usage {
		fs.usage[i].State = segClean
	}
	fs.usage[fs.heads[classHot].seg].State = segActive
	segSize := int64(fs.sb.SegmentSize)
	// Segment 2: fairly empty but hot (just written). Segment 4:
	// more utilised but very old/cold. Cost-benefit should prefer
	// the cold one; greedy would prefer the empty one.
	fs.usage[2].State = segDirty
	fs.usage[2].Live = segSize * 30 / 100
	fs.usage[2].Age = fs.clock.Now()
	fs.usage[4].State = segDirty
	fs.usage[4].Live = segSize * 50 / 100
	fs.usage[4].Age = 0 // 1000 seconds old
	victim, ok := fs.selectVictim(nil)
	if !ok || victim != 4 {
		t.Fatalf("cost-benefit picked %d, want old cold segment 4", victim)
	}
	// Same state under greedy picks the emptier one.
	fs.cfg.Policy = CleanGreedy
	victim, ok = fs.selectVictim(nil)
	if !ok || victim != 2 {
		t.Fatalf("greedy picked %d, want emptier segment 2", victim)
	}
}

// TestSelectVictimExactUtilizationBoundary: the MinLiveFraction
// cutoff is exclusive — a segment at exactly the threshold is never
// picked, one byte below it is. (0.75 of a power-of-two segment is
// exactly representable, so the comparison is exact.)
func TestSelectVictimExactUtilizationBoundary(t *testing.T) {
	cfg := smallConfig()
	cfg.MinLiveFraction = 0.75
	fs := newTestFS(t, 16<<20, cfg)
	for i := range fs.usage {
		fs.usage[i].State = segClean
	}
	fs.usage[fs.heads[classHot].seg].State = segActive
	segSize := int64(fs.sb.SegmentSize)
	fs.usage[2].State = segDirty
	fs.usage[2].Live = segSize * 3 / 4 // exactly the cutoff
	if victim, ok := fs.selectVictim(nil); ok {
		t.Fatalf("picked %d at exactly MinLiveFraction; the cutoff is exclusive", victim)
	}
	fs.usage[2].Live--
	if victim, ok := fs.selectVictim(nil); !ok || victim != 2 {
		t.Fatalf("one byte below the cutoff: got %d, %v; want 2", victim, ok)
	}
}

// TestSelectVictimTieBreaksLowestIndex: equal scores must resolve to
// the lowest segment index (strict > keeps the first candidate), so
// victim selection — and everything downstream of it — is
// deterministic across runs.
func TestSelectVictimTieBreaksLowestIndex(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	for i := range fs.usage {
		fs.usage[i].State = segClean
	}
	fs.usage[fs.heads[classHot].seg].State = segActive
	segSize := int64(fs.sb.SegmentSize)
	for _, i := range []int{9, 3, 6} {
		fs.usage[i].State = segDirty
		fs.usage[i].Live = segSize / 4
	}
	if victim, ok := fs.selectVictim(nil); !ok || victim != 3 {
		t.Fatalf("tie broke to %d (ok=%v), want lowest index 3", victim, ok)
	}
	if victim, ok := fs.selectVictim([]int{3}); !ok || victim != 6 {
		t.Fatalf("tie with 3 excluded broke to %d (ok=%v), want 6", victim, ok)
	}
}

// TestSelectVictimSpaceGuardOverridesCostBenefit: with the clean
// reserve exhausted and the pool below the activation threshold,
// cost-benefit must fall back to greedy — the old dense victim it
// prefers nets almost no space, and picking it under pressure is the
// death spiral the guard exists to break. This volume's threshold (3)
// is under its reserve (5), so at the threshold itself — where the
// cleaner activates — cost-benefit still chooses.
func TestSelectVictimSpaceGuardOverridesCostBenefit(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = CleanCostBenefit
	fs := newTestFS(t, 16<<20, cfg)
	fs.clock.Advance(1000 * sim.Second)
	for i := range fs.usage {
		fs.usage[i].State = segClean
	}
	fs.usage[fs.heads[classHot].seg].State = segActive
	segSize := int64(fs.sb.SegmentSize)
	fs.usage[2].State = segDirty
	fs.usage[2].Live = segSize * 30 / 100
	fs.usage[2].Age = fs.clock.Now() // sparse but hot
	fs.usage[4].State = segDirty
	fs.usage[4].Live = segSize * 50 / 100
	fs.usage[4].Age = 0 // dense but old
	fs.recountClean()
	if victim, ok := fs.selectVictim(nil); !ok || victim != 4 {
		t.Fatalf("precondition: cost-benefit with headroom picked %d (ok=%v), want 4", victim, ok)
	}
	threshold := fs.cfg.cleanThreshold(int(fs.sb.Segments))
	if threshold > fs.cleanReserve() {
		t.Fatalf("precondition: threshold %d above reserve %d", threshold, fs.cleanReserve())
	}
	fs.cleanCount = threshold
	if victim, ok := fs.selectVictim(nil); !ok || victim != 4 {
		t.Fatalf("at the activation threshold cost-benefit picked %d (ok=%v), want old dense segment 4", victim, ok)
	}
	fs.cleanCount = threshold - 1
	if victim, ok := fs.selectVictim(nil); !ok || victim != 2 {
		t.Fatalf("space guard picked %d (ok=%v), want emptiest segment 2", victim, ok)
	}
}

// TestSelectBatchGathersSparseVictims: sparse victims whose combined
// live data fits the relocation budget are batched together in greedy
// order without duplicates, and the needed cap is honored.
func TestSelectBatchGathersSparseVictims(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	for i := range fs.usage {
		fs.usage[i].State = segClean
	}
	fs.usage[fs.heads[classHot].seg].State = segActive
	segSize := int64(fs.sb.SegmentSize)
	dirty := func(i int, live int64) {
		fs.usage[i].State = segDirty
		fs.usage[i].Live = live
	}
	dirty(3, segSize/4)
	dirty(5, segSize/8)
	dirty(7, segSize/2)
	fs.recountClean()
	batch := fs.selectBatch(8)
	// Combined live data (7/8 of a segment) fits the two-segment
	// budget, so all three come back, emptiest first.
	want := []int{5, 3, 7}
	if len(batch) != len(want) {
		t.Fatalf("batch = %v, want %v", batch, want)
	}
	for i := range want {
		if batch[i] != want[i] {
			t.Fatalf("batch = %v, want %v", batch, want)
		}
	}
	if batch = fs.selectBatch(2); len(batch) != 2 {
		t.Fatalf("needed=2 returned %v", batch)
	}
}

// TestSelectBatchStopsAtBudget: victims stop accumulating when their
// combined live data would overflow the relocation budget — but the
// first victim is always admitted, even over budget, so a cleaner
// under space pressure can still start.
func TestSelectBatchStopsAtBudget(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	for i := range fs.usage {
		fs.usage[i].State = segClean
	}
	fs.usage[fs.heads[classHot].seg].State = segActive
	segSize := int64(fs.sb.SegmentSize)
	dirty := func(i int) {
		fs.usage[i].State = segDirty
		fs.usage[i].Live = segSize * 9 / 10
	}
	dirty(3)
	dirty(6)
	dirty(9)
	// Headroom for a two-segment budget: 0.9 + 0.9 fits, the third
	// victim would overflow.
	fs.cleanCount = 4
	batch := fs.selectBatch(8)
	if len(batch) != 2 || batch[0] != 3 || batch[1] != 6 {
		t.Fatalf("batch = %v, want [3 6] (third victim overflows the budget)", batch)
	}
	// No headroom at all: the budget is zero, yet the first victim
	// must still be admitted.
	fs.cleanCount = 2
	batch = fs.selectBatch(8)
	if len(batch) != 1 || batch[0] != 3 {
		t.Fatalf("batch under zero budget = %v, want [3]", batch)
	}
}

func TestPlaceBlocksSpansSegments(t *testing.T) {
	cfg := smallConfig()
	cfg.SegmentSize = 64 << 10 // 16 blocks per segment
	fs := newTestFS(t, 16<<20, cfg)
	// Place more blocks than one segment holds.
	n := 40
	refs := make([]blockRef, n)
	payload := make([][]byte, n)
	for i := range payload {
		payload[i] = make([]byte, cfg.BlockSize)
		payload[i][0] = byte(i)
		refs[i] = blockRef{Kind: kindData, Ino: 99, ID: int64(i)}
	}
	startSeg := fs.heads[classHot].seg
	addrs, err := fs.placeBlocks(classHot, refs, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != n {
		t.Fatalf("placed %d, want %d", len(addrs), n)
	}
	if fs.heads[classHot].seg == startSeg {
		t.Fatal("placement did not span segments")
	}
	// All addresses distinct and within the segment area.
	seen := make(map[int64]bool)
	for i, a := range addrs {
		if fs.segOf(a) < 0 {
			t.Fatalf("block %d placed outside the segment area (%v)", i, a)
		}
		if seen[int64(a)] {
			t.Fatalf("address %v assigned twice", a)
		}
		seen[int64(a)] = true
	}
	if err := fs.flushPendingIO(); err != nil {
		t.Fatal(err)
	}
	// Every placed block must read back with its payload.
	buf := make([]byte, cfg.BlockSize)
	for i, a := range addrs {
		//lfslint:allow iocause raw-device readback below the FS; attribution is irrelevant here
		if err := fs.d.ReadSectors(int64(a), buf, disk.CauseOther, "test"); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("block %d read back %d", i, buf[0])
		}
	}
}

func TestAdvanceSegmentExhaustion(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	// Mark everything dirty so no clean segment remains.
	for i := range fs.usage {
		if fs.usage[i].State == segClean {
			fs.usage[i].State = segDirty
		}
	}
	fs.cleanCount = 0
	if err := fs.advanceSegment(classHot); err == nil {
		t.Fatal("advanceSegment succeeded with no clean segments")
	}
}

func TestFindCleanSegmentWraps(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	for i := range fs.usage {
		fs.usage[i].State = segDirty
	}
	// Only a segment behind the head is clean.
	fs.usage[1].State = segClean
	fs.heads[classHot].seg = len(fs.usage) - 2
	fs.usage[fs.heads[classHot].seg].State = segActive
	next, ok := fs.findCleanSegmentFrom(fs.heads[classHot].seg)
	if !ok || next != 1 {
		t.Fatalf("findCleanSegmentFrom = %d, %v; want wrap to 1", next, ok)
	}
}

// TestCleanerPreservesDestinationAge: relocated blocks must carry
// their victim segment's data age to the destination segment, not the
// copy time. The old code stamped relocations "just written", so one
// cleaner pass made cold data look hot and cost-benefit stopped ever
// re-selecting the segments it landed in — age segregation silently
// degraded to random placement.
func TestCleanerPreservesDestinationAge(t *testing.T) {
	cfg := smallConfig()
	cfg.SegmentSize = 64 << 10
	cfg.CacheBlocks = 64
	cfg.MaxInodes = 512
	fs := newTestFS(t, 8<<20, cfg)
	// Write the population strictly after t=0 so a real data age is
	// never confused with the zero value.
	fs.clock.Advance(10 * sim.Second)
	for i := 0; i < 40; i++ {
		p := pathOf(i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, bytes.Repeat([]byte{byte(i)}, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	t0 := fs.clock.Now()
	fs.clock.Advance(500 * sim.Second)
	// Kill every other file so the old segments are worth cleaning;
	// the deletions' metadata lands in fresh segments and leaves the
	// victims' recorded age untouched.
	for i := 0; i < 40; i += 2 {
		if err := fs.Remove(pathOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i := range fs.usage {
		u := fs.usage[i]
		if u.State == segDirty && u.Live > 0 && u.Age > 0 && u.Age <= t0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no old partially-live segment; test setup is wrong")
	}
	srcAge := fs.usage[victim].Age
	res, err := cleanVictims(fs, victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveCopied == 0 {
		t.Fatal("victim had no live blocks; test setup is wrong")
	}
	if !fs.heads[classCold].open {
		t.Fatal("segregated cleaning did not route relocations to the cold head")
	}
	dest := fs.heads[classCold].seg
	destAge := fs.usage[dest].Age
	now := fs.clock.Now()
	if destAge != srcAge {
		t.Fatalf("destination age = %d, want the victim's data age %d (now = %d): "+
			"relocation must carry age, not restamp it", destAge, srcAge, now)
	}
	if destAge >= now {
		t.Fatalf("destination age %d not older than the copy time %d", destAge, now)
	}
}

func TestInodeCacheEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxInodes = inodeCacheLimit + 64 // the table holds no number past the inode map's
	fs := newTestFS(t, 16<<20, cfg)
	// Fill the in-core table beyond the limit with clean inodes.
	for i := 0; i < inodeCacheLimit+10; i++ {
		ino := layout.Ino(i + 10)
		fs.inodes.install(ino, layout.NewInode(ino, layout.ModeFile|0o644))
	}
	fs.evictInodes()
	if fs.inodes.n >= inodeCacheLimit {
		t.Fatalf("evictInodes left %d in-core inodes", fs.inodes.n)
	}
}

// TestCheckDetectsDanglingPointer: the checker must notice a live
// block pointer into a clean (reusable) segment — the invariant the
// cleaner's checkpoint-before-reuse protocol exists to uphold.
func TestCheckDetectsDanglingPointer(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sanity: clean before sabotage.
	rep, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("pre-sabotage problems: %v", rep.Problems)
	}
	// Sabotage: mark the segment holding /f's data clean, as a
	// buggy cleaner might.
	in, err := fs.getInode(2) // first file after the root
	if err != nil {
		fi, serr := fs.Stat("/f")
		if serr != nil {
			t.Fatal(serr)
		}
		in, err = fs.getInode(fi.Ino)
		if err != nil {
			t.Fatal(err)
		}
	}
	addr, err := fs.blockAddrOf(in, 0)
	if err != nil || addr.IsNil() {
		t.Fatalf("no on-disk block for /f: %v %v", addr, err)
	}
	seg := fs.segOf(addr)
	fs.usage[seg].State = segClean
	rep, err = fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("checker blessed a live pointer into a clean segment")
	}
}

// TestCheckDetectsFreeInodeReference: a directory entry pointing at a
// free inode-map slot must be reported.
func TestCheckDetectsFreeInodeReference(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	if err := fs.Create("/ghost"); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("/ghost")
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: free the inode in the map while the directory entry
	// remains.
	fs.imap.free(fi.Ino)
	rep, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("checker blessed a directory entry to a free inode")
	}
}

// TestCheckDetectsUsageDrift: a segment whose usage entry says other than
// what its holders add up to is a problem, and so is the live-byte total
// that moved with it.
func TestCheckDetectsUsageDrift(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	must(t, fs.Create("/a"))
	must(t, fs.Write("/a", 0, make([]byte, 8192)))
	must(t, fs.Sync())
	rep, err := fs.Check()
	must(t, err)
	if !rep.Ok() {
		t.Fatalf("before the forgery: problems %q", rep.Problems)
	}
	fi, err := fs.Stat("/a")
	must(t, err)
	addr := fs.imap.peek(fi.Ino).Addr
	seg := fs.segOf(addr)
	fs.creditBlock(addr, 4096, fs.clock.Now())
	rep, err = fs.Check()
	must(t, err)
	for _, want := range []string{fmt.Sprintf("segment %d: usage array says", seg), "live-byte total"} {
		if !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.Contains(p, want) }) {
			t.Errorf("segment %d credited 4096 bytes nothing holds: problems %q, want one saying %q", seg, rep.Problems, want)
		}
	}
}

// TestCheckDetectsBlockHeldTwice: two files pointed at one log block is
// a problem, and so is a file's block that is also an inode block. Many
// inodes sharing their inode block is not.
func TestCheckDetectsBlockHeldTwice(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	for _, p := range []string{"/a", "/b"} {
		must(t, fs.Create(p))
		must(t, fs.Write(p, 0, make([]byte, 4096)))
	}
	must(t, fs.Sync())
	inode := func(p string) *layout.Inode {
		t.Helper()
		fi, err := fs.Stat(p)
		must(t, err)
		in, err := fs.getInode(fi.Ino)
		must(t, err)
		return in
	}
	a, b := inode("/a"), inode("/b")
	if ea, eb := fs.imap.peek(a.Ino), fs.imap.peek(b.Ino); fs.blockStart(fs.segOf(ea.Addr), ea.Addr) != fs.blockStart(fs.segOf(eb.Addr), eb.Addr) {
		t.Fatalf("/a and /b are in different inode blocks (%v, %v): the test wants them sharing one", ea.Addr, eb.Addr)
	}
	rep, err := fs.Check()
	must(t, err)
	if !rep.Ok() || rep.Blocks != 3 { // the root's directory block, /a's and /b's
		t.Fatalf("before the forgery: %d blocks, problems %q; want 3 and none", rep.Blocks, rep.Problems)
	}
	for _, forge := range []struct {
		name string
		addr layout.DiskAddr
		want string
	}{
		{"/a's data block", a.Direct[0], fmt.Sprintf("held by inode %d block 0 and by inode %d block 0", a.Ino, b.Ino)},
		{"their inode block", fs.imap.peek(a.Ino).Addr, fmt.Sprintf("held by inode %d inode block and by inode %d block 0", a.Ino, b.Ino)},
	} {
		old := b.Direct[0]
		b.Direct[0] = forge.addr
		rep, err := fs.Check()
		b.Direct[0] = old
		must(t, err)
		if !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.Contains(p, forge.want) }) {
			t.Errorf("/b pointed at %s: problems %q, want one saying %q", forge.name, rep.Problems, forge.want)
		}
	}
}
