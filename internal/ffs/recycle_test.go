package ffs_test

import (
	"bytes"
	"fmt"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/ffs"
	"lfs/internal/fstest"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// newSmallCacheFS mounts a fresh FFS whose buffer cache holds only
// cacheBlocks blocks.
func newSmallCacheFS(t *testing.T, cacheBlocks int) *ffs.FS {
	t.Helper()
	d := disk.NewMem(64<<20, sim.NewClock())
	cfg := ffs.DefaultConfig()
	cfg.CacheBlocks = cacheBlocks
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestReadAheadOutrunsCache reads a contiguous 32-block file
// sequentially through caches no larger than the 8-block read-ahead
// run plus the metadata it needs: a run then evicts its own head while
// inserting its tail, and the caller must still get the bytes of the
// block it asked for.
func TestReadAheadOutrunsCache(t *testing.T) {
	fstest.PoisonRecycledBuffers(t)
	for _, cacheBlocks := range []int{6, 9} {
		fs := newSmallCacheFS(t, cacheBlocks)
		bs := ffs.DefaultConfig().BlockSize
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
				t.Fatalf("%d-block cache: block %d read back wrong (first byte %#x, want %#x)",
					cacheBlocks, lbn, got[0], want[lbn*bs])
			}
		}
	}
}

// TestFFSPoisonedRecycling reruns the suites that compare the file
// system against the reference model with recycled buffers poisoned
// and a cache small enough to evict constantly: a block used after its
// eviction, or an AddFrom that left part of a recycled buffer in
// place, would surface as a divergence from the model.
func TestFFSPoisonedRecycling(t *testing.T) {
	fstest.PoisonRecycledBuffers(t)
	open := func(t *testing.T) vfs.FileSystem { return newSmallCacheFS(t, 24) }
	t.Run("conformance", func(t *testing.T) { fstest.RunConformance(t, open) })
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("equivalence/seed%d", seed), func(t *testing.T) {
			fstest.RunEquivalence(t, open, seed, 400)
		})
	}
}
