//go:build unix

package disk

import (
	"fmt"
	"os"
	"sync"
	"syscall"
)

// MmapStore is a Store backed by a shared memory mapping of an image
// file: reads and writes are plain memory copies with no per-request
// system calls, which is what makes multi-GB volumes affordable to
// simulate. Dirty pages live in the host page cache; Sync flushes them
// with fsync (on a MAP_SHARED mapping, file sync covers pages dirtied
// through the mapping).
type MmapStore struct {
	mu sync.Mutex
	// f is the image file handle; guarded by mu.
	f *os.File
	// data is the shared mapping of the whole image; nil after Close;
	// guarded by mu.
	data []byte
	// size is fixed at open and immutable thereafter.
	size int64
}

// OpenMmapStore opens (or creates) path as a disk image of the given
// capacity and maps it shared. Existing contents are preserved, as
// with OpenFileStore.
func OpenMmapStore(path string, size int64) (*MmapStore, error) {
	if size <= 0 {
		return nil, fmt.Errorf("disk: non-positive MmapStore size %d: %w", size, ErrOutOfRange)
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("disk: MmapStore size %d overflows the address space", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open image: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: stat image %s: %w", path, err)
	}
	if info.Size() < size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("disk: extend image %s to %d bytes: %w", path, size, err)
		}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: mmap image %s (%d bytes): %w", path, size, err)
	}
	return &MmapStore{f: f, data: data, size: size}, nil
}

// Size returns the store capacity in bytes.
func (s *MmapStore) Size() int64 { return s.size }

// ReadAt copies out of the mapping.
func (s *MmapStore) ReadAt(p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkStoreRange(p, off, s.size); err != nil {
		return err
	}
	if s.data == nil {
		return fmt.Errorf("disk: %w", ErrClosed)
	}
	copy(p, s.data[off:off+int64(len(p))])
	return nil
}

// WriteAt copies into the mapping.
func (s *MmapStore) WriteAt(p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkStoreRange(p, off, s.size); err != nil {
		return err
	}
	if s.data == nil {
		return fmt.Errorf("disk: %w", ErrClosed)
	}
	copy(s.data[off:off+int64(len(p))], p)
	return nil
}

// Sync flushes dirty pages of the mapping to stable storage.
func (s *MmapStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		return fmt.Errorf("disk: sync: %w", ErrClosed)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("disk: sync image: %w", err)
	}
	return nil
}

// Close unmaps the image and closes the file. Close is idempotent.
func (s *MmapStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		return nil
	}
	data := s.data
	s.data = nil
	if err := syscall.Munmap(data); err != nil {
		s.f.Close()
		return fmt.Errorf("disk: munmap image: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("disk: close image: %w", err)
	}
	return nil
}
