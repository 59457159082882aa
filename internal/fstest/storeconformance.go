package fstest

// Store-level conformance: the block-store analogue of RunConformance.
// Every Store backend (in-memory, copy-on-write, sparse file, mmap)
// must pass one exported battery, including the two clauses the
// simulation depends on: fault injection behaves identically through
// every backend, and the same seeded request stream leaves the same
// bytes on every backend — images are backend-independent.

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/sim"
)

// StoreFactory opens a fresh, empty store for one subtest. The store
// must be at least 4 MB; the factory (typically via t.TempDir and
// t.Cleanup) owns any backing files. The suite closes the store when a
// clause finishes — Close must be idempotent.
type StoreFactory func(t *testing.T) disk.Store

// storeMinSize is the capacity floor RunStoreConformance demands.
const storeMinSize = 4 << 20

// RunStoreConformance runs the full store battery against the backend
// produced by open. The snapshot clauses are skipped for stores that do
// not implement disk.Snapshotter. The differential clauses take
// disk.MemStore as their reference, look-ahead chunk and all; the
// reference's own reference is the flat byte array of internal/disk's
// TestMemStoreMatchesFlatArrayProperty.
func RunStoreConformance(t *testing.T, open StoreFactory) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(*testing.T, StoreFactory)
	}{
		{"UnwrittenReadsZero", testStoreUnwrittenReadsZero},
		{"RoundTripDifferential", testStoreRoundTripDifferential},
		{"ZeroLengthIO", testStoreZeroLengthIO},
		{"OutOfRange", testStoreOutOfRange},
		{"CloseSemantics", testStoreCloseSemantics},
		{"SyncPersists", testStoreSyncPersists},
		{"SameSeedIdenticalImage", testStoreSameSeedIdenticalImage},
		{"FaultInjectionIdentical", testStoreFaultInjectionIdentical},
		{"SnapshotRewind", testStoreSnapshotRewind},
		{"SnapshotIndependence", testStoreSnapshotIndependence},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn(t, open)
		})
	}
}

// openChecked opens a store and enforces the suite's size floor.
func openChecked(t *testing.T, open StoreFactory) disk.Store {
	t.Helper()
	s := open(t)
	if s == nil {
		t.Fatal("factory returned a nil store")
	}
	if s.Size() < storeMinSize {
		t.Fatalf("store of %d bytes is below the conformance floor of %d", s.Size(), storeMinSize)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// storeImage reads the full store contents.
func storeImage(t *testing.T, s disk.Store) []byte {
	t.Helper()
	img := make([]byte, s.Size())
	const step = 1 << 20
	for off := int64(0); off < s.Size(); off += step {
		n := s.Size() - off
		if n > step {
			n = step
		}
		if err := s.ReadAt(img[off:off+n], off); err != nil {
			t.Fatalf("reading image at %d: %v", off, err)
		}
	}
	return img
}

func testStoreUnwrittenReadsZero(t *testing.T, open StoreFactory) {
	s := openChecked(t, open)
	buf := make([]byte, 4096)
	for _, off := range []int64{0, 512, s.Size() / 2, s.Size() - int64(len(buf))} {
		for i := range buf {
			buf[i] = 0xFF
		}
		if err := s.ReadAt(buf, off); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("unwritten byte at %d+%d = %#x, want 0", off, i, b)
			}
		}
	}
}

// storeOpStream drives a seeded stream of sector-aligned writes, reads,
// and syncs against the store, mirroring every write into a flat model
// image. When snapshots is true and the store supports them, the
// stream also snapshots and restores (mirroring both into model
// copies). It returns the final model image.
func storeOpStream(t *testing.T, s disk.Store, seed int64, ops int, snapshots bool) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := make([]byte, s.Size())
	sectors := s.Size() / disk.SectorSize

	snapper, canSnap := s.(disk.Snapshotter)
	canSnap = canSnap && snapshots
	type snapPair struct {
		snap  disk.Snapshot
		model []byte
	}
	var snaps []snapPair

	buf := make([]byte, 64*disk.SectorSize)
	for i := 0; i < ops; i++ {
		n := (1 + rng.Intn(64)) * disk.SectorSize
		sector := rng.Int63n(sectors - 64)
		off := sector * disk.SectorSize
		switch k := rng.Intn(100); {
		case k < 55: // write
			p := buf[:n]
			for j := range p {
				p[j] = byte(rng.Intn(256))
			}
			if err := s.WriteAt(p, off); err != nil {
				t.Fatalf("op %d: write [%d,%d): %v", i, off, off+int64(n), err)
			}
			copy(model[off:], p)
		case k < 85: // read and compare against the model
			p := buf[:n]
			if err := s.ReadAt(p, off); err != nil {
				t.Fatalf("op %d: read [%d,%d): %v", i, off, off+int64(n), err)
			}
			if !bytes.Equal(p, model[off:off+int64(n)]) {
				t.Fatalf("op %d: read [%d,%d) diverged from the model", i, off, off+int64(n))
			}
		case k < 90: // sync
			if err := s.Sync(); err != nil {
				t.Fatalf("op %d: sync: %v", i, err)
			}
		case k < 95 && canSnap: // snapshot
			sn, err := snapper.Snapshot()
			if err != nil {
				t.Fatalf("op %d: snapshot: %v", i, err)
			}
			m := make([]byte, len(model))
			copy(m, model)
			snaps = append(snaps, snapPair{sn, m})
		case canSnap && len(snaps) > 0: // restore a random snapshot
			pair := snaps[rng.Intn(len(snaps))]
			if err := pair.snap.Restore(); err != nil {
				t.Fatalf("op %d: restore: %v", i, err)
			}
			copy(model, pair.model)
		}
	}
	for _, pair := range snaps {
		if err := pair.snap.Release(); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	return model
}

func testStoreRoundTripDifferential(t *testing.T, open StoreFactory) {
	s := openChecked(t, open)
	model := storeOpStream(t, s, 1234, 400, true)
	if !bytes.Equal(storeImage(t, s), model) {
		t.Fatal("final image diverged from the flat model")
	}
}

func testStoreZeroLengthIO(t *testing.T, open StoreFactory) {
	s := openChecked(t, open)
	for _, off := range []int64{0, 512, s.Size()} {
		if err := s.ReadAt(nil, off); err != nil {
			t.Fatalf("zero-length read at %d: %v", off, err)
		}
		if err := s.WriteAt(nil, off); err != nil {
			t.Fatalf("zero-length write at %d: %v", off, err)
		}
	}
}

func testStoreOutOfRange(t *testing.T, open StoreFactory) {
	s := openChecked(t, open)
	buf := make([]byte, disk.SectorSize)
	cases := []struct {
		name string
		err  error
	}{
		{"read past capacity", s.ReadAt(buf, s.Size())},
		{"read straddling the end", s.ReadAt(buf, s.Size()-256)},
		{"read at negative offset", s.ReadAt(buf, -1)},
		{"write past capacity", s.WriteAt(buf, s.Size())},
		{"write straddling the end", s.WriteAt(buf, s.Size()-256)},
		{"write at negative offset", s.WriteAt(buf, -disk.SectorSize)},
		{"zero-length read past capacity", s.ReadAt(nil, s.Size()+1)},
		// off+len(buf) wraps negative here; no backend may index with it.
		{"read where offset plus length overflows", s.ReadAt(buf, math.MaxInt64-1)},
		{"write where offset plus length overflows", s.WriteAt(buf, math.MaxInt64-1)},
	}
	for _, c := range cases {
		if !errors.Is(c.err, disk.ErrOutOfRange) {
			t.Errorf("%s: err = %v, want errors.Is(err, disk.ErrOutOfRange)", c.name, c.err)
		}
	}
}

func testStoreCloseSemantics(t *testing.T, open StoreFactory) {
	s := openChecked(t, open)
	buf := make([]byte, disk.SectorSize)
	if err := s.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close must be a no-op, got %v", err)
	}
	if err := s.ReadAt(buf, 0); !errors.Is(err, disk.ErrClosed) {
		t.Errorf("read after close: err = %v, want errors.Is(err, disk.ErrClosed)", err)
	}
	if err := s.WriteAt(buf, 0); !errors.Is(err, disk.ErrClosed) {
		t.Errorf("write after close: err = %v, want errors.Is(err, disk.ErrClosed)", err)
	}
	if err := s.Sync(); !errors.Is(err, disk.ErrClosed) {
		t.Errorf("sync after close: err = %v, want errors.Is(err, disk.ErrClosed)", err)
	}
}

func testStoreSyncPersists(t *testing.T, open StoreFactory) {
	s := openChecked(t, open)
	want := bytes.Repeat([]byte{0x5A, 0xA5}, 8*disk.SectorSize)
	if err := s.WriteAt(want, 3*disk.SectorSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got := make([]byte, len(want))
	if err := s.ReadAt(got, 3*disk.SectorSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data changed across Sync")
	}
}

// testStoreSameSeedIdenticalImage runs one seeded write stream against
// the backend under test and against the reference MemStore; the final
// images must be byte-identical. This is the backend-independence
// clause: on-disk image bytes are a function of the request stream
// alone, never of the persistence technology.
func testStoreSameSeedIdenticalImage(t *testing.T, open StoreFactory) {
	s := openChecked(t, open)
	ref := disk.NewMemStore(s.Size())
	defer ref.Close()
	const seed, ops = 987, 300
	storeOpStream(t, s, seed, ops, false)
	storeOpStream(t, ref, seed, ops, false)
	if !bytes.Equal(storeImage(t, s), storeImage(t, ref)) {
		t.Fatal("same-seed images differ between the backend and the reference MemStore")
	}
}

// faultScript issues a fixed write sequence through a Disk built over
// the store, with plan attached, and returns the write index that
// observed the power cut (0 if none).
func faultScript(t *testing.T, s disk.Store, plan *disk.CrashPlan) int {
	t.Helper()
	geom := faultGeometry(s.Size())
	d, err := disk.New(s, geom, disk.WrenIVModel(), sim.NewClock())
	if err != nil {
		t.Fatalf("building disk over store: %v", err)
	}
	d.SetFaultPolicy(plan)
	rng := rand.New(rand.NewSource(55))
	cut := 0
	for i := 1; i <= 40; i++ {
		n := (1 + rng.Intn(16)) * disk.SectorSize
		sector := rng.Int63n(geom.TotalSectors() - 16)
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(rng.Intn(256))
		}
		sync := i%3 == 0
		//lfslint:allow iocause raw store-conformance traffic below any file system; attribution is irrelevant here
		if err := d.WriteSectors(sector, p, sync, disk.CauseOther, "fault-script"); err != nil {
			if errors.Is(err, disk.ErrPowerLoss) {
				cut = i
				break
			}
			t.Fatalf("write %d: %v", i, err)
		}
	}
	return cut
}

// faultGeometry builds the largest WREN-IV-shaped geometry fitting the
// store.
func faultGeometry(size int64) disk.Geometry {
	g := disk.Geometry{SectorsPerTrack: 42, TracksPerCylinder: 9}
	g.Cylinders = int(size / (g.SectorsPerCylinder() * disk.SectorSize))
	return g
}

// testStoreFaultInjectionIdentical verifies the fault layer composes
// with every backend: an identical CrashPlan over an identical write
// stream cuts power at the same request and leaves a byte-identical
// image on the backend under test and on the reference MemStore —
// including the torn-write case, where only a prefix persists.
func testStoreFaultInjectionIdentical(t *testing.T, open StoreFactory) {
	for _, tc := range []struct {
		name string
		plan func() *disk.CrashPlan
	}{
		{"lost", func() *disk.CrashPlan { return &disk.CrashPlan{CutWrite: 17} }},
		{"torn", func() *disk.CrashPlan { return &disk.CrashPlan{CutWrite: 17, TearFatalWrite: true} }},
		{"dropped", func() *disk.CrashPlan {
			return &disk.CrashPlan{CutWrite: 23, DropWrites: map[int64]bool{5: true, 9: true}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openChecked(t, open)
			ref := disk.NewMemStore(s.Size())
			defer ref.Close()
			cut := faultScript(t, s, tc.plan())
			refCut := faultScript(t, ref, tc.plan())
			if cut == 0 || cut != refCut {
				t.Fatalf("power cut at write %d on the backend, %d on the reference", cut, refCut)
			}
			if !bytes.Equal(storeImage(t, s), storeImage(t, ref)) {
				t.Fatal("post-crash images differ between the backend and the reference MemStore")
			}
		})
	}
}

func testStoreSnapshotRewind(t *testing.T, open StoreFactory) {
	s := openChecked(t, open)
	snapper, ok := s.(disk.Snapshotter)
	if !ok {
		t.Skipf("%T does not implement disk.Snapshotter", s)
	}
	base := bytes.Repeat([]byte{1, 2, 3, 4}, 4*disk.SectorSize)
	if err := s.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	sn, err := snapper.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := storeImage(t, s)

	// Scribble widely, then rewind — twice, since snapshots must
	// survive their own restore.
	for round := 0; round < 2; round++ {
		junk := bytes.Repeat([]byte{0xEE}, 8*disk.SectorSize)
		for _, off := range []int64{0, s.Size() / 3, s.Size() - int64(len(junk))} {
			if err := s.WriteAt(junk, off); err != nil {
				t.Fatal(err)
			}
		}
		if err := sn.Restore(); err != nil {
			t.Fatalf("restore round %d: %v", round, err)
		}
		if !bytes.Equal(storeImage(t, s), want) {
			t.Fatalf("round %d: image after restore differs from the snapshot state", round)
		}
	}
	if err := sn.Release(); err != nil {
		t.Fatal(err)
	}
	if err := sn.Restore(); err == nil {
		t.Fatal("restore after Release succeeded")
	}
}

// testStoreSnapshotIndependence interleaves two snapshots and verifies
// each restores its own state regardless of restore order.
func testStoreSnapshotIndependence(t *testing.T, open StoreFactory) {
	s := openChecked(t, open)
	snapper, ok := s.(disk.Snapshotter)
	if !ok {
		t.Skipf("%T does not implement disk.Snapshotter", s)
	}
	write := func(fill byte) {
		p := bytes.Repeat([]byte{fill}, 4*disk.SectorSize)
		if err := s.WriteAt(p, int64(fill)*disk.SectorSize); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	sn1, err := snapper.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img1 := storeImage(t, s)
	write(2)
	sn2, err := snapper.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img2 := storeImage(t, s)
	write(3)

	if err := sn1.Restore(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeImage(t, s), img1) {
		t.Fatal("restoring the older snapshot did not reproduce its image")
	}
	if err := sn2.Restore(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeImage(t, s), img2) {
		t.Fatal("restoring the newer snapshot after the older one did not reproduce its image")
	}
	if err := sn1.Release(); err != nil {
		t.Fatal(err)
	}
	if err := sn2.Release(); err != nil {
		t.Fatal(err)
	}
}
