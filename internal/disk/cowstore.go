package disk

import "fmt"

// cowChunkSize is the copy-on-write granule of CowMemStore. Smaller
// than MemStore's lazy-allocation granule because it bounds the bytes
// copied when a write lands on a chunk a snapshot still references:
// a snapshot-per-write recording pass copies at most one chunk per
// touched boundary, not a whole megabyte.
const cowChunkSize = 64 << 10

// cowChunk is one copy-on-write granule. Once shared (referenced by a
// snapshot or by a restored image) a chunk's data is immutable forever;
// writers replace the map entry with a fresh private clone instead.
type cowChunk struct {
	data   []byte
	shared bool
}

// CowMemStore is a copy-on-write in-memory Store with O(1) snapshots:
// Snapshot copies only the chunk table (pointers, not data) and marks
// every chunk immutable; later writes clone just the chunks they
// touch. Restoring a snapshot swaps the chunk table back, so rewinding
// a multi-megabyte image costs microseconds — the property that turns
// the crash-point sweep from O(points × writes) into O(points).
//
// Like every Store, it is meant for use by a single goroutine.
type CowMemStore struct {
	size   int64
	chunks map[int64]*cowChunk // chunk index -> chunk; nil after Close
}

// NewCowMemStore returns an empty copy-on-write store of the given
// capacity.
func NewCowMemStore(size int64) *CowMemStore {
	if size <= 0 {
		panic(fmt.Sprintf("disk: non-positive CowMemStore size %d", size))
	}
	return &CowMemStore{size: size, chunks: make(map[int64]*cowChunk)}
}

// Size returns the store capacity in bytes.
func (s *CowMemStore) Size() int64 { return s.size }

// Sync implements Store; memory is always "stable" here.
func (s *CowMemStore) Sync() error {
	if s.chunks == nil {
		return fmt.Errorf("disk: sync: %w", ErrClosed)
	}
	return nil
}

// Close releases the chunk table. Outstanding snapshots keep their own
// references and stay readable for Restore errors only. Close is
// idempotent.
func (s *CowMemStore) Close() error {
	s.chunks = nil
	return nil
}

func (s *CowMemStore) checkRange(p []byte, off int64) error {
	if err := checkStoreRange(p, off, s.size); err != nil {
		return err
	}
	if s.chunks == nil {
		return fmt.Errorf("disk: %w", ErrClosed)
	}
	return nil
}

// ReadAt fills p from the store; unallocated chunks read as zeros.
func (s *CowMemStore) ReadAt(p []byte, off int64) error {
	if err := s.checkRange(p, off); err != nil {
		return err
	}
	for len(p) > 0 {
		ci := off / cowChunkSize
		co := off % cowChunkSize
		n := cowChunkSize - co
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		if c, ok := s.chunks[ci]; ok {
			copy(p[:n], c.data[co:co+n])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += n
	}
	return nil
}

// WriteAt stores p at off. Chunks still referenced by a snapshot are
// cloned before the write lands (copy-on-write).
func (s *CowMemStore) WriteAt(p []byte, off int64) error {
	if err := s.checkRange(p, off); err != nil {
		return err
	}
	for len(p) > 0 {
		ci := off / cowChunkSize
		co := off % cowChunkSize
		n := cowChunkSize - co
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		c, ok := s.chunks[ci]
		switch {
		case !ok:
			c = &cowChunk{data: make([]byte, cowChunkSize)}
			s.chunks[ci] = c
		case c.shared:
			clone := &cowChunk{data: make([]byte, cowChunkSize)}
			copy(clone.data, c.data)
			c = clone
			s.chunks[ci] = c
		}
		copy(c.data[co:co+n], p[:n])
		p = p[n:]
		off += n
	}
	return nil
}

// Snapshot implements Snapshotter: an O(chunk-table) copy that shares
// every data chunk with the live image.
func (s *CowMemStore) Snapshot() (Snapshot, error) {
	if s.chunks == nil {
		return nil, fmt.Errorf("disk: snapshot: %w", ErrClosed)
	}
	snap := make(map[int64]*cowChunk, len(s.chunks))
	for i, c := range s.chunks {
		c.shared = true
		snap[i] = c
	}
	return &memSnapshot{store: s, chunks: snap}, nil
}

// memSnapshot is a point-in-time image of a CowMemStore. Its chunks
// are immutable (shared), so it survives any number of later writes
// and restores.
type memSnapshot struct {
	store  *CowMemStore
	chunks map[int64]*cowChunk // nil after Release
}

// Restore implements Snapshot: the store's chunk table becomes a fresh
// copy of the snapshot's, all chunks still shared so the snapshot can
// be restored again.
func (sn *memSnapshot) Restore() error {
	if sn.chunks == nil {
		return fmt.Errorf("disk: restore of a released snapshot")
	}
	if sn.store.chunks == nil {
		return fmt.Errorf("disk: restore: %w", ErrClosed)
	}
	m := make(map[int64]*cowChunk, len(sn.chunks))
	for i, c := range sn.chunks {
		m[i] = c
	}
	sn.store.chunks = m
	return nil
}

// Release implements Snapshot. Releasing is idempotent.
func (sn *memSnapshot) Release() error {
	sn.chunks = nil
	return nil
}
