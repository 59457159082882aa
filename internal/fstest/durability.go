package fstest

import (
	"math/rand"
	"testing"

	"lfs/internal/vfs"
)

// ReopenableFactory opens a fresh file system and returns it together
// with a reopen function that unmount-remounts the same volume
// (returning a new handle backed by the same disk).
type ReopenableFactory func(t *testing.T) (fs vfs.FileSystem, reopen func() vfs.FileSystem)

// RunDurabilityEquivalence drives the implementation and the
// in-memory model with the same random operations, then unmounts,
// remounts, and requires the remounted tree to match the model
// exactly — a clean unmount must persist everything.
func RunDurabilityEquivalence(t *testing.T, open ReopenableFactory, seed int64, nOps int) {
	t.Helper()
	fs, reopen := open(t)
	model := vfs.NewModel(nil)
	rng := rand.New(rand.NewSource(seed))
	g := newOpGen(rng)

	for i := 0; i < nOps; i++ {
		op := g.next()
		if diff, _ := applyBoth(fs, model, op); diff != "" {
			t.Fatalf("step %d (%s): %s", i, op, diff)
		}
		// Interleave syncs so the log sees partial-segment writes,
		// multiple units, and age-threshold-like patterns.
		if rng.Intn(40) == 0 {
			if err := fs.Sync(); err != nil {
				t.Fatalf("step %d: sync: %v", i, err)
			}
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatalf("unmount: %v", err)
	}
	remounted := reopen()
	compareTrees(t, remounted, model)
}
