package disk_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/fstest"
)

// storeBackends is the full backend matrix; every entry must pass the
// exported store conformance suite.
var storeBackends = []struct {
	name string
	open fstest.StoreFactory
}{
	{"mem", func(t *testing.T) disk.Store {
		s, err := disk.OpenStore(disk.StoreOptions{Backend: disk.BackendMem, Capacity: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"cow", func(t *testing.T) disk.Store {
		s, err := disk.OpenStore(disk.StoreOptions{Backend: disk.BackendCow, Capacity: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"file", func(t *testing.T) disk.Store {
		s, err := disk.OpenStore(disk.StoreOptions{
			Backend: disk.BackendFile, Path: filepath.Join(t.TempDir(), "img"), Capacity: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"mmap", func(t *testing.T) disk.Store {
		s, err := disk.OpenStore(disk.StoreOptions{
			Backend: disk.BackendMmap, Path: filepath.Join(t.TempDir(), "img"), Capacity: 8 << 20})
		if err != nil {
			t.Skipf("mmap store unavailable: %v", err)
		}
		return s
	}},
}

// TestStoreConformance runs the exported store battery over every
// backend — the acceptance gate for the pluggable-store API.
func TestStoreConformance(t *testing.T) {
	for _, b := range storeBackends {
		t.Run(b.name, func(t *testing.T) {
			fstest.RunStoreConformance(t, b.open)
		})
	}
}

// TestOpenStoreValidation pins the options API's error behaviour.
func TestOpenStoreValidation(t *testing.T) {
	if _, err := disk.OpenStore(disk.StoreOptions{Backend: disk.BackendMem, Capacity: 0}); err == nil {
		t.Error("zero-capacity OpenStore succeeded")
	}
	if _, err := disk.OpenStore(disk.StoreOptions{Backend: disk.BackendFile, Capacity: 1 << 20}); err == nil {
		t.Error("file backend without a path succeeded")
	}
	if _, err := disk.OpenStore(disk.StoreOptions{Backend: disk.BackendMmap, Capacity: 1 << 20}); err == nil {
		t.Error("mmap backend without a path succeeded")
	}
	if _, err := disk.OpenStore(disk.StoreOptions{Backend: disk.StoreBackend(99), Capacity: 1 << 20}); err == nil {
		t.Error("unknown backend succeeded")
	}
}

// TestMmapStorePersistsAcrossReopen mirrors the FileStore persistence
// test for the mapped backend.
func TestMmapStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	s, err := disk.OpenMmapStore(path, 1<<20)
	if err != nil {
		t.Skipf("mmap store unavailable: %v", err)
	}
	want := bytes.Repeat([]byte{9}, 2048)
	if err := s.WriteAt(want, 8192); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := disk.OpenMmapStore(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := make([]byte, len(want))
	if err := s2.ReadAt(got, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data did not persist across mmap reopen")
	}
}
