package core_test

import (
	"fmt"
	"testing"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/experiments"
	"lfs/internal/fstest"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// TestCrashPointSweep enumerates every disk write of a mixed
// create/write/overwrite/truncate/delete/clean workload and cuts power
// during each one — once losing the fatal write whole, once tearing it
// at a sector boundary. Recovery must succeed at every point: mount
// from the checkpoint regions alone, mount with roll-forward, pass the
// consistency checker, restore only states the tree actually held, and
// pass the offline fsck path.
// cleaningWorkload maximises cleaner activity relative to everything
// else: populate, delete most files to fragment the log, then clean.
// Used by TestCrashDuringCleaningRecovers below.
func cleaningWorkload(blockSize int) []fstest.Op {
	var ops []fstest.Op
	name := func(round, i int) string {
		return "/c" + string(rune('a'+round)) + string(rune('a'+i))
	}
	// Three rounds of populate → fragment → clean → write again, so
	// reclaimed segments are actually reused while crash points keep
	// landing inside and between cleaner runs.
	for round := 0; round < 3; round++ {
		for i := 0; i < 16; i++ {
			data := make([]byte, 3*blockSize)
			for j := range data {
				data[j] = byte(round*41 + i*13 + j)
			}
			ops = append(ops,
				fstest.Op{Kind: fstest.OpCreate, Path: name(round, i)},
				fstest.Op{Kind: fstest.OpWrite, Path: name(round, i), Off: 0, Data: data},
			)
		}
		ops = append(ops, fstest.Op{Kind: fstest.OpSync})
		for i := 0; i < 16; i++ {
			if i%4 != 3 {
				ops = append(ops, fstest.Op{Kind: fstest.OpRemove, Path: name(round, i)})
			}
		}
		ops = append(ops,
			fstest.Op{Kind: fstest.OpSync},
			fstest.Op{Kind: fstest.OpClean},
			fstest.Op{Kind: fstest.OpClean},
			fstest.Op{Kind: fstest.OpClean},
			fstest.Op{Kind: fstest.OpCheckpoint},
		)
	}
	return ops
}

// TestCrashDuringCleaningRecovers sweeps every crash point of a
// cleaner-dominated workload. Regression for segment resurrection:
// the cleaner used to mark reclaimed segments clean before any
// checkpoint recorded the relocation of their live blocks, so writes
// later in the same run could overwrite data the only durable
// checkpoint still pointed at; crashing in that window recovered a
// tree with corrupted inodes. Reclaimed segments now stay pending
// until a checkpoint commits.
func TestCrashDuringCleaningRecovers(t *testing.T) {
	cfg := experiments.CrashConfig()
	rep, err := fstest.RunCrashPoints(fstest.CrashConfig{
		Target:       experiments.LFSTarget(cfg),
		DiskCapacity: 4 << 20,
		Workload:     cleaningWorkload(cfg.BlockSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points == 0 {
		t.Fatal("workload produced no crash points")
	}
	for i, f := range rep.Failures {
		if i >= 20 {
			t.Errorf("... and %d more failures", len(rep.Failures)-i)
			break
		}
		t.Error(f.String())
	}
}

// generatedWorkload is n ops of the generator RunEquivalence draws from,
// with a checkpoint and a cleaner pass interleaved every 100 ops.
func generatedWorkload(seed int64, n int) []fstest.Op {
	var ops []fstest.Op
	for i, op := range fstest.RandomWorkload(seed, n) {
		ops = append(ops, op)
		switch i % 100 {
		case 49:
			ops = append(ops, fstest.Op{Kind: fstest.OpCheckpoint})
		case 99:
			ops = append(ops, fstest.Op{Kind: fstest.OpClean})
		}
	}
	return ops
}

// TestCrashPointSweepGenerated sweeps every crash point of generated
// streams, lost and torn: they rename, link, read, and issue ops that
// legitimately fail, none of which the scripted workloads do.
func TestCrashPointSweepGenerated(t *testing.T) {
	cfg := experiments.CrashConfig()
	for _, seed := range []int64{2, 4} {
		ops := generatedWorkload(seed, 300)
		succeeded := map[fstest.OpKind]int{}
		model := vfs.NewModel(nil)
		for _, op := range ops {
			if _, err := op.Apply(model); err == nil {
				succeeded[op.Kind]++
			}
		}
		if succeeded[fstest.OpRename] == 0 || succeeded[fstest.OpLink] == 0 {
			t.Fatalf("seed %d: %d renames and %d links succeed, want at least one of each",
				seed, succeeded[fstest.OpRename], succeeded[fstest.OpLink])
		}
		for _, torn := range []bool{false, true} {
			rep, err := fstest.RunCrashPoints(fstest.CrashConfig{
				Target:       experiments.LFSTarget(cfg),
				DiskCapacity: 8 << 20,
				Workload:     ops,
				Torn:         torn,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if rep.RollForwardPoints == 0 {
				t.Errorf("seed %d (torn %v): no crash point of %d rolled forward", seed, torn, rep.Points)
			}
			for i, f := range rep.Failures {
				if i >= 20 {
					t.Errorf("... and %d more failures", len(rep.Failures)-i)
					break
				}
				t.Errorf("seed %d: %s", seed, f)
			}
		}
	}
}

func TestCrashPointSweep(t *testing.T) {
	cfg := experiments.CrashConfig()
	for _, tc := range []struct {
		name string
		torn bool
	}{
		{"lost", false},
		{"torn", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := fstest.RunCrashPoints(fstest.CrashConfig{
				Target:       experiments.LFSTarget(cfg),
				DiskCapacity: 8 << 20,
				Workload:     fstest.MixedWorkload(48, cfg.BlockSize),
				Torn:         tc.torn,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.TotalWrites < 100 {
				t.Errorf("workload issued only %d disk writes, want >= 100 crash points", rep.TotalWrites)
			}
			if rep.Points != int(rep.TotalWrites) {
				t.Errorf("replayed %d of %d crash points", rep.Points, rep.TotalWrites)
			}
			if rep.RollForwardPoints == 0 {
				t.Error("no crash point exercised roll-forward recovery")
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

// commitWorkload creates a few files and overwrites each of them in
// rounds, fsyncing every write, so most commits carry their inodes
// inline; a sync makes the names durable and a checkpoint ends each
// round after the first.
func commitWorkload(blockSize int) []fstest.Op {
	var ops []fstest.Op
	for round := range 3 {
		for i := range 4 {
			p := fmt.Sprintf("/f%d", i)
			if round == 0 {
				ops = append(ops, fstest.Op{Kind: fstest.OpCreate, Path: p})
			}
			data := make([]byte, blockSize+blockSize/2)
			for j := range data {
				data[j] = byte(round*59 + i*17 + j)
			}
			ops = append(ops,
				fstest.Op{Kind: fstest.OpWrite, Path: p, Off: int64(round * blockSize), Data: data},
				fstest.Op{Kind: fstest.OpFsync, Path: p})
		}
		if round == 0 {
			ops = append(ops, fstest.Op{Kind: fstest.OpSync})
		} else {
			ops = append(ops, fstest.Op{Kind: fstest.OpCheckpoint})
		}
	}
	return ops
}

// writeTap is a store that keeps a copy of every write, and its byte
// offset, once armed.
type writeTap struct {
	disk.Store
	armed  bool
	writes [][]byte
	offs   []int64
}

func (s *writeTap) WriteAt(p []byte, off int64) error {
	if s.armed {
		s.writes = append(s.writes, append([]byte(nil), p...))
		s.offs = append(s.offs, off)
	}
	return s.Store.WriteAt(p, off)
}

// tapWrites runs ops once on a fresh volume, OpClean by the target's
// cleaner as the crash battery runs it, and returns the tap holding every
// write the workload issued, in the order the battery numbers them.
func tapWrites(t *testing.T, target fstest.Target, capacity int64, ops []fstest.Op) *writeTap {
	t.Helper()
	geom := disk.GeometryForCapacity(capacity)
	tap := &writeTap{Store: disk.NewCowMemStore(geom.TotalBytes())}
	d, err := disk.New(tap, geom, disk.WrenIVModel(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := target.Format(d)
	if err != nil {
		t.Fatal(err)
	}
	tap.armed = true
	for _, op := range ops {
		if op.Kind == fstest.OpClean {
			err = target.Clean(fs)
		} else {
			_, err = op.Apply(fs)
		}
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	return tap
}

// inlineWrites runs ops once on a fresh volume and returns how many
// writes the workload issued and which of them (1-based, as the crash
// battery numbers them) carry a unit with inline inode records.
func inlineWrites(t *testing.T, target fstest.Target, capacity int64, ops []fstest.Op, bs int) (int, []int) {
	t.Helper()
	tap := tapWrites(t, target, capacity, ops)
	var inline []int
	for k, w := range tap.writes {
		if core.InlineUnits(w, bs) > 0 {
			inline = append(inline, k+1)
		}
	}
	return len(tap.writes), inline
}

// TestCrashPointSweepCommits sweeps every crash point of an fsync-bound
// workload, lost and torn, with and without group commit: some cuts land
// in the write of a commit unit whose summary carries inode records, and
// recovery holds at every one.
func TestCrashPointSweepCommits(t *testing.T) {
	for _, group := range []bool{false, true} {
		cfg := experiments.CrashConfig()
		cfg.GroupCommit = group
		ops := commitWorkload(cfg.BlockSize)
		const capacity = 4 << 20
		writes, inline := inlineWrites(t, experiments.LFSTarget(cfg), capacity, ops, cfg.BlockSize)
		if len(inline) == 0 {
			t.Fatalf("group commit %v: none of %d writes carries inline inode records", group, writes)
		}
		for _, torn := range []bool{false, true} {
			rep, err := fstest.RunCrashPoints(fstest.CrashConfig{
				Target:       experiments.LFSTarget(cfg),
				DiskCapacity: capacity,
				Workload:     ops,
				Torn:         torn,
			})
			if err != nil {
				t.Fatalf("group commit %v: %v", group, err)
			}
			if rep.TotalWrites != int64(writes) || rep.Points != writes {
				t.Fatalf("group commit %v (torn %v): swept %d of %d writes, the tap saw %d", group, torn, rep.Points, rep.TotalWrites, writes)
			}
			t.Logf("group commit %v (torn %v): %d points, %d roll forward, writes %v carry inline records",
				group, torn, rep.Points, rep.RollForwardPoints, inline)
			for i, f := range rep.Failures {
				if i >= 20 {
					t.Errorf("... and %d more failures", len(rep.Failures)-i)
					break
				}
				t.Errorf("group commit %v: %s", group, f)
			}
		}
	}
}

// coldInodeWorkload builds, without cleaning, a volume whose first
// cleaner pass writes both orders of a hot and a cold unit that the
// writer's hot-before-cold issue order has to make safe, then cleans and
// checkpoints. /big has twelve direct blocks and one under its
// single-indirect block; a truncate moves that indirect block, alone,
// into the segment the /d/s files fill, whose every other block the
// removals and later syncs kill. The application then dirties /big.
//
// The pass's first victim is that segment. Its only live block, the
// indirect block, goes cold after /big's dirty block went hot, and /big's
// record, dirtied by the application, goes hot in a unit of its own: one
// that joined the earlier hot unit would point into a cold unit of a later
// serial, which the hot-before-cold order can lose behind it. The next
// victim holds /big's last direct blocks and the block under its indirect
// block: the direct ones go cold and dirty /big's record, which follows
// them there, while the indirect block they dirty goes hot in a later
// serial, issued first.
func coldInodeWorkload(bs int) []fstest.Op {
	fill := func(n, seed int) []byte {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(seed*31 + j)
		}
		return p
	}
	ops := []fstest.Op{
		{Kind: fstest.OpMkdir, Path: "/d"},
		{Kind: fstest.OpCreate, Path: "/big"},
		{Kind: fstest.OpWrite, Path: "/big", Data: fill(14*bs, 1)},
		{Kind: fstest.OpSync},
		{Kind: fstest.OpTruncate, Path: "/big", Size: int64(13 * bs)},
	}
	files := func(prefix string, n int) {
		for i := range n {
			p := fmt.Sprintf("/d/%s%d", prefix, i)
			ops = append(ops, fstest.Op{Kind: fstest.OpCreate, Path: p}, fstest.Op{Kind: fstest.OpWrite, Path: p, Data: fill(2*bs, i)})
		}
		ops = append(ops, fstest.Op{Kind: fstest.OpSync})
	}
	files("s", 7)
	for i := range 7 {
		ops = append(ops, fstest.Op{Kind: fstest.OpRemove, Path: fmt.Sprintf("/d/s%d", i)})
	}
	files("t", 7)
	files("u", 1)
	return append(ops,
		fstest.Op{Kind: fstest.OpWrite, Path: "/big", Off: 5, Data: fill(100, 9)},
		fstest.Op{Kind: fstest.OpClean},
		fstest.Op{Kind: fstest.OpCheckpoint},
	)
}

// TestCrashPointSweepColdInodes sweeps every write of cleaner passes on a
// segregated volume, lost and torn, whose cold units carry the inode
// records the passes dirtied (coldInodeWorkload): some point at a
// single-indirect block in a hot unit of a later serial, which is safe
// only because the hot run is issued first. Letting hot batches join a
// unit during a pass fails this sweep: /big's record then rides a hot
// unit that points into a cold unit a cut can lose.
func TestCrashPointSweepColdInodes(t *testing.T) {
	cfg := experiments.CrashConfig()
	if !cfg.Segregation {
		t.Fatal("the crash configuration does not segregate; the sweep has no cold records")
	}
	ops := coldInodeWorkload(cfg.BlockSize)
	const capacity = 4 << 20
	tap := tapWrites(t, experiments.LFSTarget(cfg), capacity, ops)
	if n := core.ColdRecordsOnLaterHot(tap.writes, tap.offs, cfg.BlockSize); n == 0 {
		t.Fatalf("none of %d writes holds a cold inode record on a later hot indirect block", len(tap.writes))
	}
	for _, torn := range []bool{false, true} {
		rep, err := fstest.RunCrashPoints(fstest.CrashConfig{
			Target:       experiments.LFSTarget(cfg),
			DiskCapacity: capacity,
			Workload:     ops,
			Torn:         torn,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Points != len(tap.writes) || rep.RollForwardPoints == 0 {
			t.Fatalf("torn %v: swept %d of %d writes (the tap saw %d), %d rolled forward",
				torn, rep.Points, rep.TotalWrites, len(tap.writes), rep.RollForwardPoints)
		}
		for i, f := range rep.Failures {
			if i >= 20 {
				t.Errorf("... and %d more failures", len(rep.Failures)-i)
				break
			}
			t.Error(f.String())
		}
	}
}
