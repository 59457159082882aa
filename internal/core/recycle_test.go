package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lfs/internal/core"
	"lfs/internal/experiments"
	"lfs/internal/fstest"
	"lfs/internal/vfs"
)

// TestReadAheadOutrunsCache reads a contiguous 32-block file
// sequentially through a 9-block cache: every 16-block read-ahead run
// evicts its own head while inserting its tail, and the caller must
// still get the bytes of the block it asked for.
func TestReadAheadOutrunsCache(t *testing.T) {
	fstest.PoisonRecycledBuffers(t)
	cfg := testConfig()
	cfg.CacheBlocks = 9
	_, fs := newPair(t, 16<<20, cfg)
	bs := cfg.BlockSize
	want := make([]byte, 32*bs)
	for i := range want {
		want[i] = byte(1 + i/bs + i%251)
	}
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.DropCaches()
	got := make([]byte, bs)
	for lbn := 0; lbn < 32; lbn++ {
		if _, err := fs.Read("/f", int64(lbn*bs), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[lbn*bs:(lbn+1)*bs]) {
			t.Fatalf("block %d read back wrong (first byte %#x, want %#x)", lbn, got[0], want[lbn*bs])
		}
	}
}

// TestLFSPoisonedRecycling reruns the suites that compare the file
// system against the reference model with recycled buffers poisoned
// and a cache small enough to evict constantly: a block used after its
// eviction, or an AddFrom that left part of a recycled buffer in
// place, would surface as a divergence from the model.
func TestLFSPoisonedRecycling(t *testing.T) {
	fstest.PoisonRecycledBuffers(t)
	small := testConfig()
	small.CacheBlocks = 24
	open := func(t *testing.T) vfs.FileSystem {
		_, fs := newPair(t, 64<<20, small)
		return fs
	}
	t.Run("conformance", func(t *testing.T) { fstest.RunConformance(t, open) })
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("equivalence/seed%d", seed), func(t *testing.T) {
			fstest.RunEquivalence(t, open, seed, 400)
		})
	}
}

// TestCrashSweepIdenticalWhenPoisoned runs the cleaner-heavy crash
// sweep and a generated one with and without poisoned recycling and
// requires the same report: the same writes, crash points, recoveries
// and verdicts.
func TestCrashSweepIdenticalWhenPoisoned(t *testing.T) {
	cfg := experiments.CrashConfig()
	for _, tc := range []struct {
		name     string
		workload []fstest.Op
	}{
		{"cleaning", cleaningWorkload(cfg.BlockSize)},
		{"generated", generatedWorkload(4, 300)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sweep := func() *fstest.CrashReport {
				rep, err := fstest.RunCrashPoints(fstest.CrashConfig{
					Target:       experiments.LFSTarget(cfg),
					DiskCapacity: 4 << 20,
					Workload:     tc.workload,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			plain := sweep()
			fstest.PoisonRecycledBuffers(t)
			poisoned := sweep()
			if !reflect.DeepEqual(plain, poisoned) {
				t.Fatalf("crash sweep differs with poisoned buffers:\nplain    %+v\npoisoned %+v", plain, poisoned)
			}
			if len(poisoned.Failures) != 0 {
				t.Fatalf("%d crash points failed, first: %s", len(poisoned.Failures), poisoned.Failures[0])
			}
		})
	}
}

// TestCleanerMemoryIdenticalWhenPoisoned runs the conformance battery
// and the random-operation comparison against the reference model on a
// log whose cleaner starts work almost at once, without and then with
// poisoning: the cleaner then scribbles over its victim buffer before
// every segment read and over buffer and staging memory whenever a pass
// ends. A relocation that outlived its pass, or a list entry pointing
// into a buffer already read over, would reach the log as 0xDB bytes
// under a fresh, valid checksum — nothing on disk would flag it, so it is
// the suites' content checks and the equality of the two runs' counters
// that must.
func TestCleanerMemoryIdenticalWhenPoisoned(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 24
	cfg.SegmentSize = 64 << 10 // 1024 segments: the cleaner runs once 24 are in use
	cfg.CleanThresholdSegments = 1000
	cfg.CleanTargetSegments = 1008
	run := func(t *testing.T) (stats []core.Stats) {
		var opened []*core.FS
		open := func(t *testing.T) vfs.FileSystem {
			_, fs := newPair(t, 64<<20, cfg)
			opened = append(opened, fs)
			return fs
		}
		t.Run("conformance", func(t *testing.T) { fstest.RunConformance(t, open) })
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("equivalence/seed%d", seed), func(t *testing.T) {
				fstest.RunEquivalence(t, open, seed, 400)
			})
		}
		for _, fs := range opened {
			stats = append(stats, fs.Stats())
		}
		return stats
	}
	var plain, poisoned []core.Stats
	t.Run("plain", func(t *testing.T) { plain = run(t) })
	t.Run("poisoned", func(t *testing.T) {
		fstest.PoisonRecycledBuffers(t)
		poisoned = run(t)
	})
	var cleaned, copied int64
	for _, s := range plain {
		cleaned += s.SegmentsCleaned
		copied += s.CleanerLiveCopied
	}
	if cleaned < 100 || copied < 1000 {
		t.Fatalf("the suites cleaned %d segments and relocated %d blocks, want the cleaner busy", cleaned, copied)
	}
	if !reflect.DeepEqual(plain, poisoned) {
		t.Fatalf("counters differ with poisoned buffers:\nplain    %+v\npoisoned %+v", plain, poisoned)
	}
}
