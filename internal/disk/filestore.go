package disk

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// FileStore is a Store backed by a sparse file on the host file
// system, used by the command-line tools (mklfs, lfsck, lfsdump) to
// operate on disk images that persist between runs. The image is
// created with Truncate, so unwritten regions are holes: a freshly
// formatted multi-gigabyte volume occupies a few file-system blocks.
type FileStore struct {
	mu sync.Mutex
	// f is the image file handle; guarded by mu (tools may scan an
	// image while a mounted FS flushes to it).
	f *os.File
	// closed reports whether Close has run; guarded by mu.
	closed bool
	// size is fixed at open and immutable thereafter.
	size int64
}

// OpenFileStore opens (or creates) path as a disk image of the given
// capacity. If the file already exists and is at least size bytes, its
// contents are preserved; otherwise it is extended with zeros (holes).
//
// Deprecated: prefer OpenStore(StoreOptions{Backend: BackendFile,
// Path: path, Capacity: size}), which covers every backend behind one
// options API.
func OpenFileStore(path string, size int64) (*FileStore, error) {
	if size <= 0 {
		return nil, fmt.Errorf("disk: non-positive FileStore size %d: %w", size, ErrOutOfRange)
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
	return &FileStore{f: f, size: size}, nil
}

// Size returns the store capacity in bytes.
func (s *FileStore) Size() int64 { return s.size }

// ReadAt fills p from the image file.
func (s *FileStore) ReadAt(p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkStoreRange(p, off, s.size); err != nil {
		return err
	}
	if s.closed {
		return fmt.Errorf("disk: %w", ErrClosed)
	}
	if len(p) == 0 {
		return nil
	}
	_, err := s.f.ReadAt(p, off)
	if err == io.EOF {
		err = nil // sparse tail reads as zeros via Truncate
	}
	if err != nil {
		return fmt.Errorf("disk: read image at %d: %w", off, err)
	}
	return nil
}

// WriteAt stores p in the image file.
func (s *FileStore) WriteAt(p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkStoreRange(p, off, s.size); err != nil {
		return err
	}
	if s.closed {
		return fmt.Errorf("disk: %w", ErrClosed)
	}
	if len(p) == 0 {
		return nil
	}
	if _, err := s.f.WriteAt(p, off); err != nil {
		return fmt.Errorf("disk: write image at %d: %w", off, err)
	}
	return nil
}

// Sync flushes the image file to stable storage.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("disk: sync: %w", ErrClosed)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("disk: sync image: %w", err)
	}
	return nil
}

// Close closes the image file. It takes the lock so a close cannot
// race a ReadAt/WriteAt in flight from another goroutine (lfslint's
// lockcheck pass caught the unlocked access). Close is idempotent.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("disk: close image: %w", err)
	}
	return nil
}
