package core_test

import (
	"testing"

	"lfs/internal/experiments"
	"lfs/internal/fstest"
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
