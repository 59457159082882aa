package disk_test

// Differential property test: one seeded op stream — writes, reads,
// syncs, snapshots, restores, all at random sector-aligned offsets —
// drives every backend in lockstep, and the images must stay
// byte-identical throughout. Backends without native snapshots emulate
// them with full-image copies, so the logical stream is the same
// everywhere and only the persistence technology differs.

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"lfs/internal/disk"
)

// diffStoreSize keeps the lockstep image comparisons fast.
const diffStoreSize = 2 << 20

// openAllBackends opens one store per backend at diffStoreSize.
func openAllBackends(t *testing.T) (names []string, stores []disk.Store) {
	t.Helper()
	for _, b := range storeBackends {
		opts := disk.StoreOptions{Capacity: diffStoreSize}
		switch b.name {
		case "mem":
			opts.Backend = disk.BackendMem
		case "cow":
			opts.Backend = disk.BackendCow
		case "file":
			opts.Backend, opts.Path = disk.BackendFile, filepath.Join(t.TempDir(), "img")
		case "mmap":
			opts.Backend, opts.Path = disk.BackendMmap, filepath.Join(t.TempDir(), "img")
		}
		s, err := disk.OpenStore(opts)
		if err != nil && b.name == "mmap" {
			t.Logf("skipping mmap backend: %v", err)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		names = append(names, b.name)
		stores = append(stores, s)
	}
	return names, stores
}

// imageCopy snapshots a store natively when it can, by full-image copy
// otherwise, returning a restore function.
func imageCopy(t *testing.T, s disk.Store) func() {
	t.Helper()
	if sn, ok := s.(disk.Snapshotter); ok {
		snap, err := sn.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := snap.Restore(); err != nil {
				t.Fatal(err)
			}
		}
	}
	img := make([]byte, s.Size())
	if err := s.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := s.WriteAt(img, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// runDifferentialStream applies ops pseudo-random operations derived
// from seed to every store in lockstep and fails on the first image
// divergence.
func runDifferentialStream(t *testing.T, seed int64, ops int) {
	t.Helper()
	names, stores := openAllBackends(t)
	if len(stores) < 2 {
		t.Skip("need at least two backends to differentiate")
	}
	rng := rand.New(rand.NewSource(seed))
	sectors := int64(diffStoreSize / disk.SectorSize)
	var restores [][]func()
	compare := func(step int) {
		ref := storeImageFull(t, stores[0])
		for i := 1; i < len(stores); i++ {
			if got := storeImageFull(t, stores[i]); !bytes.Equal(got, ref) {
				t.Fatalf("step %d: %s image diverged from %s (seed %d)", step, names[i], names[0], seed)
			}
		}
	}
	for i := 0; i < ops; i++ {
		n := (1 + rng.Intn(32)) * disk.SectorSize
		off := rng.Int63n(sectors-32) * disk.SectorSize
		switch k := rng.Intn(100); {
		case k < 60: // identical write everywhere
			p := make([]byte, n)
			for j := range p {
				p[j] = byte(rng.Intn(256))
			}
			for si, s := range stores {
				if err := s.WriteAt(p, off); err != nil {
					t.Fatalf("step %d: %s write: %v", i, names[si], err)
				}
			}
		case k < 75: // identical read everywhere
			ref := make([]byte, n)
			if err := stores[0].ReadAt(ref, off); err != nil {
				t.Fatalf("step %d: %s read: %v", i, names[0], err)
			}
			got := make([]byte, n)
			for si := 1; si < len(stores); si++ {
				if err := stores[si].ReadAt(got, off); err != nil {
					t.Fatalf("step %d: %s read: %v", i, names[si], err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("step %d: %s read diverged from %s (seed %d)", i, names[si], names[0], seed)
				}
			}
		case k < 80: // sync everywhere
			for si, s := range stores {
				if err := s.Sync(); err != nil {
					t.Fatalf("step %d: %s sync: %v", i, names[si], err)
				}
			}
		case k < 90: // snapshot everywhere (native or emulated)
			row := make([]func(), len(stores))
			for si, s := range stores {
				row[si] = imageCopy(t, s)
			}
			restores = append(restores, row)
		default: // restore the same point everywhere
			if len(restores) == 0 {
				continue
			}
			row := restores[rng.Intn(len(restores))]
			for _, restore := range row {
				restore()
			}
			compare(i)
		}
	}
	compare(ops)
}

// storeImageFull reads the whole image (test-local copy of the suite
// helper, so this file stands alone).
func storeImageFull(t *testing.T, s disk.Store) []byte {
	t.Helper()
	img := make([]byte, s.Size())
	if err := s.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return img
}

func TestStoreDifferentialProperty(t *testing.T) {
	for _, seed := range []int64{1, 42, 20260808} {
		t.Run("", func(t *testing.T) { runDifferentialStream(t, seed, 250) })
	}
}

// FuzzStoreDifferential lets the fuzzer hunt for op streams that make
// any backend's image diverge; the seed corpus keeps the lockstep
// check in every ordinary `go test` run.
func FuzzStoreDifferential(f *testing.F) {
	f.Add(int64(7), uint8(60))
	f.Add(int64(99), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, ops uint8) {
		runDifferentialStream(t, seed, int(ops)%200+10)
	})
}
