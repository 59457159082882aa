package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/fstest"
	"lfs/internal/obs"
	"lfs/internal/server"
	"lfs/internal/shard"
	"lfs/internal/sim"
	"lfs/internal/vfs"
	"lfs/internal/workload"
)

// The router must satisfy every surface that drives a single LFS.
var (
	_ server.FS       = (*shard.FS)(nil)
	_ workload.System = (*shard.FS)(nil)
)

// testConfig is a small, fast per-shard configuration.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBlocks = 512
	cfg.GroupCommit = true
	return cfg
}

// newShards builds an n-shard system over 16 MB-per-shard disks.
func newShards(t *testing.T, n int, opts shard.Options) *shard.FS {
	t.Helper()
	fs, err := shard.NewMem(n, int64(n)*(16<<20), opts)
	if err != nil {
		t.Fatalf("NewMem(%d): %v", n, err)
	}
	return fs
}

// opener opens a fresh n-shard router for each conformance case.
func opener(n int, cfg core.Config) fstest.Factory {
	return func(t *testing.T) vfs.FileSystem {
		return newShards(t, n, shard.Options{Base: cfg})
	}
}

// poisonedConfig is testConfig with a cache small enough to evict
// constantly, every recycled buffer scribbled over for the rest of the
// test: bytes served through a stale block would fail the suite's
// read-back checks.
func poisonedConfig(t *testing.T) core.Config {
	fstest.PoisonRecycledBuffers(t)
	cfg := testConfig()
	cfg.CacheBlocks = 24
	return cfg
}

// TestConformanceSingleShard runs the full VFS conformance suite
// against a one-shard router. The router has no one-shard path: every
// operation goes the way it goes at four shards, and at one shard even
// a directory rename places on one shard.
func TestConformanceSingleShard(t *testing.T) {
	fstest.RunConformance(t, opener(1, testConfig()))
}

// TestConformancePoisonedRecycling reruns the single-shard suite with
// poisonedConfig's cache.
func TestConformancePoisonedRecycling(t *testing.T) {
	fstest.RunConformance(t, opener(1, poisonedConfig(t)))
}

// TestConformanceFourShards runs the suite's single-path layer on four
// shards, plain and with poisonedConfig's cache. Its other layer needs
// renames and links whose paths may place on different shards;
// TestRenameAndLinkPlacement holds the router's rule for those.
func TestConformanceFourShards(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		fstest.RunSinglePathConformance(t, opener(4, testConfig()))
	})
	t.Run("poisoned", func(t *testing.T) {
		fstest.RunSinglePathConformance(t, opener(4, poisonedConfig(t)))
	})
}

// TestInodeNumbersFit: N shards of MaxInodes inodes number up to
// MaxInodes*N + N-1 (ino*N + shard), which must fit a layout.Ino. At
// 2^31-1 inodes a shard, two shards fit exactly and three do not;
// NewMem and Mount refuse the three before they format or mount a disk.
func TestInodeNumbersFit(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInodes = 1<<31 - 1
	// 1 MB blocks keep the inode map of 2^31 inodes to about 49 000 blocks.
	cfg.BlockSize = 1 << 20
	cfg.SegmentSize = 4 << 20
	cfg.CacheBlocks = 16
	opts := shard.Options{Base: cfg}
	const perShard = 24 << 20
	fs, err := shard.NewMem(2, 2*perShard, opts)
	if err != nil {
		t.Fatalf("two shards of %d inodes: %v", cfg.MaxInodes, err)
	}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		fi, err := fs.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if home, _ := fs.ShardFor(p); int(fi.Ino%2) != home {
			t.Fatalf("%s: inode number %d on shard %d", p, fi.Ino, home)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "32-bit inode number") {
			t.Fatalf("%s of three shards of %d inodes = %v, want refused", what, cfg.MaxInodes, err)
		}
	}
	_, err = shard.NewMem(3, 3*perShard, opts)
	refused("NewMem", err)
	_, err = shard.Mount([]*disk.Disk{fs.Disk(0), fs.Disk(1), disk.NewMem(perShard, fs.Clock())}, opts)
	refused("Mount", err)
}

func TestPlacement(t *testing.T) {
	fs := newShards(t, 4, shard.Options{Base: testConfig()})

	s1, err := fs.ShardFor("/some/file")
	if err != nil {
		t.Fatalf("ShardFor: %v", err)
	}
	s2, err := fs.ShardFor("/some/file/")
	if err != nil {
		t.Fatalf("ShardFor trailing slash: %v", err)
	}
	if s1 != s2 {
		t.Fatalf("equivalent spellings place differently: %d vs %d", s1, s2)
	}
	if _, err := fs.ShardFor("bad"); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("ShardFor(relative) = %v, want ErrInvalid", err)
	}
}

// TestReplicatedDirs exercises Mkdir broadcast, merged ReadDir, and
// replicated-directory Remove across four shards.
func TestReplicatedDirs(t *testing.T) {
	fs := newShards(t, 4, shard.Options{Base: testConfig()})
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	// The replicated directory must exist on every shard.
	for i := 0; i < fs.NumShards(); i++ {
		if _, err := fs.ShardFS(i).Stat("/d"); err != nil {
			t.Fatalf("shard %d missing /d: %v", i, err)
		}
	}
	// Spread files until at least two shards hold children of /d.
	used := map[int]bool{}
	var names []string
	for i := 0; len(used) < 2 || i < 8; i++ {
		name := fmt.Sprintf("f%02d", i)
		path := "/d/" + name
		if err := fs.Create(path); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		s, _ := fs.ShardFor(path)
		used[s] = true
		names = append(names, name)
	}
	ents, err := fs.ReadDir("/d")
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(ents) != len(names) {
		t.Fatalf("readdir merged %d entries, want %d", len(ents), len(names))
	}
	for i, e := range ents {
		if i > 0 && ents[i-1].Name >= e.Name {
			t.Fatalf("readdir not name-sorted: %q then %q", ents[i-1].Name, e.Name)
		}
	}
	// ReadDir of a file must fail with the file's own ErrNotDir.
	if _, err := fs.ReadDir("/d/" + names[0]); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("readdir(file) = %v, want ErrNotDir", err)
	}
	// Removing a non-empty replicated directory fails everywhere.
	if err := fs.Remove("/d"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("remove non-empty = %v, want ErrNotEmpty", err)
	}
	for _, n := range names {
		if err := fs.Remove("/d/" + n); err != nil {
			t.Fatalf("remove %s: %v", n, err)
		}
	}
	if err := fs.Remove("/d"); err != nil {
		t.Fatalf("remove empty dir: %v", err)
	}
	// Every replica must be gone.
	for i := 0; i < fs.NumShards(); i++ {
		if _, err := fs.ShardFS(i).Stat("/d"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("shard %d still has /d (err=%v)", i, err)
		}
	}
}

// findNames returns sibling file names under dir whose placements
// land on the same shard as anchor (same=true) or a different shard
// (same=false).
func findName(t *testing.T, fs *shard.FS, dir, prefix, anchor string, same bool) string {
	t.Helper()
	as, err := fs.ShardFor(anchor)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("%s/%s%03d", dir, prefix, i)
		s, err := fs.ShardFor(p)
		if err != nil {
			t.Fatal(err)
		}
		if (s == as) == same {
			return p
		}
	}
	t.Fatalf("no candidate with same=%v placement as %s", same, anchor)
	return ""
}

func TestRenameAndLinkPlacement(t *testing.T) {
	fs := newShards(t, 4, shard.Options{Base: testConfig()})
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	const f = "/d/file"
	if err := fs.Create(f); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(f, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	// Same-shard rename succeeds and the content follows the name.
	dst := findName(t, fs, "/d", "ren", f, true)
	if err := fs.Rename(f, dst); err != nil {
		t.Fatalf("same-shard rename: %v", err)
	}
	buf := make([]byte, 7)
	if n, err := fs.Read(dst, 0, buf); err != nil || n != 7 || string(buf) != "payload" {
		t.Fatalf("read after rename: n=%d err=%v buf=%q", n, err, buf)
	}
	if _, err := fs.Stat(f); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("old name still resolves: %v", err)
	}

	// Cross-shard rename fails with ErrCrossShard in a *vfs.PathError
	// and leaves the source untouched.
	cross := findName(t, fs, "/d", "crs", dst, false)
	err := fs.Rename(dst, cross)
	if !errors.Is(err, shard.ErrCrossShard) {
		t.Fatalf("cross-shard rename = %v, want ErrCrossShard", err)
	}
	var pe *vfs.PathError
	if !errors.As(err, &pe) || pe.Op != "rename" {
		t.Fatalf("cross-shard rename error not a rename PathError: %v", err)
	}
	if _, err := fs.Stat(dst); err != nil {
		t.Fatalf("source vanished after rejected rename: %v", err)
	}

	// Cross-shard link fails the same way; same-shard link works.
	if err := fs.Link(dst, cross); !errors.Is(err, shard.ErrCrossShard) {
		t.Fatalf("cross-shard link = %v, want ErrCrossShard", err)
	}
	samelink := findName(t, fs, "/d", "lnk", dst, true)
	if err := fs.Link(dst, samelink); err != nil {
		t.Fatalf("same-shard link: %v", err)
	}

	// Renaming a directory is rejected outright, even to a name that
	// places on its own home shard: its children hash from its path.
	for _, same := range []bool{false, true} {
		to := findName(t, fs, "", "dir", "/d", same)
		if err := fs.Rename("/d", to); !errors.Is(err, shard.ErrCrossShard) {
			t.Fatalf("dir rename to %s (same home shard: %v) = %v, want ErrCrossShard", to, same, err)
		}
	}
	if _, err := fs.Stat(dst); err != nil {
		t.Fatalf("a file vanished after a rejected dir rename: %v", err)
	}
}

// imageBytes snapshots a disk's entire backing store.
func imageBytes(t *testing.T, d *disk.Disk) []byte {
	t.Helper()
	st := d.Store()
	buf := make([]byte, st.Size())
	if err := st.ReadAt(buf, 0); err != nil {
		t.Fatalf("reading image: %v", err)
	}
	return buf
}

// TestDeterminismAcrossShardCounts reruns the same seeded multi-client
// workload at shard counts 1, 2, and 4 and requires byte-identical
// per-shard disk images between same-seed runs.
func TestDeterminismAcrossShardCounts(t *testing.T) {
	scfg := server.Config{
		Clients:        6,
		OpsPerClient:   24,
		WriteSize:      4096,
		FilesPerClient: 4,
		Seed:           7,
	}
	for _, n := range []int{1, 2, 4} {
		run := func() ([][]byte, sim.Time) {
			fs := newShards(t, n, shard.Options{Base: testConfig()})
			if _, err := server.Run(fs, scfg); err != nil {
				t.Fatalf("%d shards: %v", n, err)
			}
			if err := fs.Unmount(); err != nil {
				t.Fatalf("%d shards: unmount: %v", n, err)
			}
			images := make([][]byte, n)
			for i := 0; i < n; i++ {
				images[i] = imageBytes(t, fs.Disk(i))
			}
			return images, fs.Clock().Now()
		}
		img1, end1 := run()
		img2, end2 := run()
		if end1 != end2 {
			t.Fatalf("%d shards: same seed ended at %v then %v", n, end1, end2)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(img1[i], img2[i]) {
				t.Fatalf("%d shards: shard %d image differs between same-seed runs", n, i)
			}
		}
	}
}

// TestCrashOneShardOthersCommit cuts power on shard 0 mid-run while
// tolerating its errors, proves the healthy shards kept committing,
// recovers shard 0 through the router, and fscks every image.
func TestCrashOneShardOthersCommit(t *testing.T) {
	const n = 4
	fs := newShards(t, n, shard.Options{Base: testConfig()})
	scfg := server.Config{
		Clients:        8,
		OpsPerClient:   16,
		WriteSize:      4096,
		FilesPerClient: 4,
		Seed:           3,
	}

	// Phase A: healthy run; every op is fsynced, so all data is
	// committed to some shard's log.
	resA, err := server.Run(fs, scfg)
	if err != nil {
		t.Fatalf("phase A: %v", err)
	}

	// Record the committed files per shard for the retention check.
	type fileAt struct {
		path  string
		shard int
	}
	var files []fileAt
	for c := 1; c <= scfg.Clients; c++ {
		for s := 0; s < scfg.FilesPerClient; s++ {
			p := fmt.Sprintf("/client%02d/f%03d", c, s)
			sh, err := fs.ShardFor(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Stat(p); err != nil {
				t.Fatalf("phase A file %s missing: %v", p, err)
			}
			files = append(files, fileAt{p, sh})
		}
	}
	// Flush everything so phase A's state is fully durable before the
	// fault is armed (fsync already committed the data; Sync also
	// commits directories).
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync after phase A: %v", err)
	}

	// Phase B: cut power on shard 0's 5th write; tolerate errors so
	// the healthy shards keep going.
	fs.Disk(0).SetFaultPolicy(&disk.CrashPlan{CutWrite: 5})
	var tolerated int
	scfgB := scfg
	scfgB.Seed = 4
	scfgB.OnOpError = func(client int, err error) bool {
		tolerated++
		return true
	}
	resB, err := server.Run(fs, scfgB)
	if err != nil {
		t.Fatalf("phase B: %v", err)
	}
	if tolerated == 0 || resB.Errors == 0 {
		t.Fatalf("phase B: expected tolerated errors, got %d (result %d)", tolerated, resB.Errors)
	}
	if resB.Ops == 0 {
		t.Fatal("phase B: no operation completed on healthy shards")
	}

	// Shard 0 is dead until recovered...
	if err := fs.ShardFS(0).Sync(); err == nil {
		t.Fatal("shard 0 sync succeeded on a frozen disk")
	}
	if err := fs.RecoverShard(0); err != nil {
		t.Fatalf("recover shard 0: %v", err)
	}
	// ...and serves again afterwards, through the same router.
	for _, f := range files {
		fi, err := fs.Stat(f.path)
		if err != nil {
			t.Fatalf("post-recovery stat %s (shard %d): %v", f.path, f.shard, err)
		}
		if fi.Size != int64(scfg.WriteSize) {
			t.Fatalf("post-recovery %s size %d, want %d", f.path, fi.Size, scfg.WriteSize)
		}
	}
	if resA.Ops != int64(scfg.Clients*scfg.OpsPerClient) {
		t.Fatalf("phase A completed %d ops, want %d", resA.Ops, scfg.Clients*scfg.OpsPerClient)
	}

	// Phase C: a healthy full-strength run across all shards.
	scfgC := scfg
	scfgC.Seed = 5
	resC, err := server.Run(fs, scfgC)
	if err != nil {
		t.Fatalf("phase C: %v", err)
	}
	if resC.Errors != 0 {
		t.Fatalf("phase C tolerated %d errors, want 0", resC.Errors)
	}

	// Unmount and fsck every shard image offline.
	if err := fs.Unmount(); err != nil {
		t.Fatalf("unmount: %v", err)
	}
	cfg := testConfig()
	for i := 0; i < n; i++ {
		rep, err := core.Fsck(fs.Disk(i), cfg)
		if err != nil {
			t.Fatalf("fsck shard %d: %v", i, err)
		}
		if !rep.Ok() {
			t.Fatalf("fsck shard %d: %v", i, rep.Problems)
		}
	}
}

// TestParkedWaitRidesItsOwnOp: a wait noted on the router belongs to
// the very next routed operation, whichever it is. ReadDir, Remove,
// Rename, Link and Unmount used to leave it parked, so it was credited
// to — and backdated the start of — whichever later operation happened
// to resolve a shard through route.
func TestParkedWaitRidesItsOwnOp(t *testing.T) {
	const wait = 5 * sim.Millisecond
	cfg := testConfig()
	cfg.Trace = obs.NewRecorder() // one recorder across all four shards
	fs := newShards(t, 4, shard.Options{Base: cfg})
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/d/f"); err != nil {
		t.Fatal(err)
	}
	// A second name on /d/f's shard, so rename and link are legal.
	twin := findName(t, fs, "/d", "twin", "/d/f", true)
	steps := []struct {
		op  string
		run func() error
	}{
		{"readdir", func() error { _, err := fs.ReadDir("/d"); return err }},
		{"link", func() error { return fs.Link("/d/f", twin) }},
		{"remove", func() error { return fs.Remove(twin) }},
		{"rename", func() error { return fs.Rename("/d/f", twin) }},
		{"remove", func() error { return fs.Remove("/d/nope") }}, // a failing op still owns its wait
		{"unmount", fs.Unmount},
	}
	for i, st := range steps {
		mark := len(cfg.Trace.Spans())
		fs.NoteWait(obs.PhaseLockWait, wait)
		err := st.run()
		if (err != nil) != (i == 4) {
			t.Fatalf("%s: %v", st.op, err)
		}
		if st.op != "unmount" {
			if err := fs.Create(fmt.Sprintf("/d/after%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		var got sim.Duration
		for _, s := range cfg.Trace.Spans()[mark:] {
			lw := obs.PhaseTotals(s.Phases)[obs.PhaseLockWait]
			if s.Op != st.op && lw != 0 {
				t.Errorf("%s's wait landed on the %s span of %s", st.op, s.Op, s.Path)
			}
			if s.Op == st.op {
				got += lw
			}
			if !s.PhasesExact() {
				t.Errorf("%s span of %s: phases do not sum to latency", s.Op, s.Path)
			}
		}
		if got != wait {
			t.Errorf("%s spans carry %v of lock_wait, want %v", st.op, got, wait)
		}
	}
}

// nameOn returns a name under dir that places on shard want.
func nameOn(t *testing.T, fs *shard.FS, dir string, want int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("%s/f%03d", dir, i)
		if s, err := fs.ShardFor(p); err != nil {
			t.Fatal(err)
		} else if s == want {
			return p
		}
	}
	t.Fatalf("no name under %s places on shard %d", dir, want)
	return ""
}

// shardLog records which shard issued each write request, and when,
// in issue order across every disk it is attached to.
type shardLog struct {
	shards []int
	issued []sim.Time
}

func (l *shardLog) Record(ev disk.Event) {
	if ev.Kind == disk.OpWrite {
		l.shards = append(l.shards, ev.Shard-1)
		l.issued = append(l.issued, ev.Time.Add(-ev.Wait))
	}
}

// TestFsyncIssuesLongestFirst: a cross-shard group commit ends when its
// longest transfer lands, so the router issues the shards most pending
// work first — those ahead of the home shard before its fsync, the rest
// between the home commit's issue and its wait — and the home fsync
// stays a group commit whose span carries the whole fan-out as
// fanout_wait.
func TestFsyncIssuesLongestFirst(t *testing.T) {
	cfg := testConfig()
	cfg.Trace = obs.NewRecorder() // one recorder across all four shards
	fs := newShards(t, 4, shard.Options{Base: cfg})
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	// Shard 1 is home (2 blocks), shard 3 has the most (5 blocks),
	// shard 0 the least (1 block), shard 2 nothing: in shard order
	// with the home last, the least would go first.
	const home = 1
	blocks := []int{1, 2, 0, 5}
	paths := make([]string, len(blocks))
	for i, n := range blocks {
		paths[i] = nameOn(t, fs, "/d", i)
		if n > 0 {
			if err := fs.Create(paths[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.BlockSize)
	for i, n := range blocks {
		for b := 0; b < n; b++ {
			if err := fs.Write(paths[i], int64(b*cfg.BlockSize), buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	pending := make([]int, len(blocks))
	for i := range pending {
		pending[i] = fs.ShardFS(i).Pending()
	}
	if pending[3] <= pending[home] || pending[home] <= pending[0] || pending[0] <= pending[2] {
		t.Fatalf("pending work %v, want shard 3 > 1 > 0 > 2", pending)
	}
	var log shardLog
	for i := range blocks {
		fs.Disk(i).SetTracer(&log)
	}
	commits := fs.ShardFS(home).Stats().GroupCommits
	mark := len(cfg.Trace.Spans())

	if err := fs.FsyncFile(paths[home]); err != nil {
		t.Fatal(err)
	}

	if len(log.shards) == 0 || log.shards[0] != 3 {
		t.Fatalf("first write on shard %v, want shard 3 (pending %v)", log.shards, pending)
	}
	for k := 1; k < len(log.shards); k++ {
		if prev, cur := log.shards[k-1], log.shards[k]; pending[cur] > pending[prev] {
			t.Fatalf("write on shard %d (pending %d) after shard %d (pending %d): %v",
				cur, pending[cur], prev, pending[prev], log.shards)
		}
	}
	if got := fs.ShardFS(home).Stats().GroupCommits; got != commits+1 {
		t.Errorf("home shard GroupCommits %d, want %d", got, commits+1)
	}
	var fsyncs []obs.Span
	for _, s := range cfg.Trace.Spans()[mark:] {
		if s.Op == "fsync" {
			fsyncs = append(fsyncs, s)
		}
	}
	if len(fsyncs) != 1 || fsyncs[0].Shard != home+1 {
		t.Fatalf("fsync spans %+v, want one on shard %d", fsyncs, home+1)
	}
	sp := fsyncs[0]
	if !sp.PhasesExact() {
		t.Errorf("home fsync span: phases %v do not sum to latency %v", sp.Phases, sp.Latency())
	}
	// The fan-out ahead of the home shard runs from the span's start
	// past the last write issued before the home shard's first; the
	// step behind it from the home shard's last write to the next.
	first, last := -1, -1
	for k, i := range log.shards {
		if i == home {
			last = k
			if first < 0 {
				first = k
			}
		}
	}
	if first < 1 || last+1 >= len(log.shards) {
		t.Fatalf("home shard's writes at %d..%d of %v, want shards on both sides", first, last, log.shards)
	}
	least := log.issued[first-1].Sub(sp.Start) + log.issued[last+1].Sub(log.issued[last])
	totals := obs.PhaseTotals(sp.Phases)
	if totals[obs.PhaseFanout] < least || totals[obs.PhaseCommitWait] <= 0 {
		t.Errorf("home fsync span: fanout_wait %v (want at least %v), commit_wait %v (want > 0)",
			totals[obs.PhaseFanout], least, totals[obs.PhaseCommitWait])
	}

	// A failing home fsync still issues the shards on both sides of it
	// (its own pending work waits for the next commit).
	for i, n := range blocks {
		for b := 0; b < n; b++ {
			if err := fs.Write(paths[i], int64(b*cfg.BlockSize), buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	missing := findName(t, fs, "/d", "missing", paths[home], true)
	if err := fs.FsyncFile(missing); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("fsync of a missing file: %v, want ErrNotExist", err)
	}
	for i := range blocks {
		if n := fs.ShardFS(i).Pending(); i != home && n != 0 {
			t.Errorf("shard %d: %d pending after the failed fsync, want 0", i, n)
		}
	}
}

// TestSteadyStateAllocs: the router splits the path to place it and the
// shard splits it again to walk it, each into memory of its own; and a
// Write plus FsyncFile through four shards, whose fan-out orders and
// issues every shard, allocates nothing either.
func TestSteadyStateAllocs(t *testing.T) {
	fstest.RunSteadyStateAllocs(t, newShards(t, 2, shard.Options{Base: testConfig()}))

	fs := newShards(t, 4, shard.Options{Base: testConfig()})
	const path = "/commit"
	if err := fs.Create(path); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8<<10)
	i := 0
	commit := func() {
		buf[0] = byte(i)
		if err := fs.Write(path, int64(i%32)*int64(len(buf)), buf); err != nil {
			t.Fatal(err)
		}
		if err := fs.FsyncFile(path); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 64 {
		commit()
	}
	if n := testing.AllocsPerRun(100, commit); n != 0 {
		t.Errorf("8 KB Write plus FsyncFile of an existing file: %v allocs per call, want 0", n)
	}
}
