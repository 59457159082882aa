package disk

import "fmt"

// memChunkSize is the lazy-allocation granule of MemStore. One
// megabyte matches the default LFS segment size, so a freshly
// formatted file system allocates memory only for segments it touches.
const memChunkSize = 1 << 20

// MemStore is a lazily allocated in-memory Store. Chunks are allocated
// on first write, so a mostly empty multi-hundred-megabyte disk costs
// almost nothing.
type MemStore struct {
	size   int64
	chunks [][]byte // index = offset / memChunkSize; a nil chunk is unallocated; nil after Close
}

// NewMemStore returns an empty in-memory store of the given capacity.
//
// Deprecated: prefer OpenStore(StoreOptions{Backend: BackendMem,
// Capacity: size}), which covers every backend behind one options API.
func NewMemStore(size int64) *MemStore {
	if size <= 0 {
		panic(fmt.Sprintf("disk: non-positive MemStore size %d", size))
	}
	return &MemStore{size: size, chunks: make([][]byte, (size+memChunkSize-1)/memChunkSize)}
}

// Size returns the store capacity in bytes.
func (m *MemStore) Size() int64 { return m.size }

// Sync implements Store; memory is always "stable" here.
func (m *MemStore) Sync() error {
	if m.chunks == nil {
		return fmt.Errorf("disk: sync: %w", ErrClosed)
	}
	return nil
}

// Close releases the chunks. Close is idempotent.
func (m *MemStore) Close() error {
	m.chunks = nil
	return nil
}

func (m *MemStore) checkRange(p []byte, off int64) error {
	if err := checkStoreRange(p, off, m.size); err != nil {
		return err
	}
	if m.chunks == nil {
		return fmt.Errorf("disk: %w", ErrClosed)
	}
	return nil
}

// ReadAt fills p from the store; unallocated chunks read as zeros.
func (m *MemStore) ReadAt(p []byte, off int64) error {
	if err := m.checkRange(p, off); err != nil {
		return err
	}
	for len(p) > 0 {
		ci := off / memChunkSize
		co := off % memChunkSize
		n := memChunkSize - co
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		if chunk := m.chunks[ci]; chunk != nil {
			copy(p[:n], chunk[co:co+n])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += n
	}
	return nil
}

// WriteAt stores p at off, allocating chunks as needed.
func (m *MemStore) WriteAt(p []byte, off int64) error {
	if err := m.checkRange(p, off); err != nil {
		return err
	}
	for len(p) > 0 {
		ci := off / memChunkSize
		co := off % memChunkSize
		n := memChunkSize - co
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		chunk := m.chunks[ci]
		if chunk == nil {
			chunk = make([]byte, memChunkSize)
			m.chunks[ci] = chunk
		}
		copy(chunk[co:co+n], p[:n])
		p = p[n:]
		off += n
	}
	return nil
}

// AllocatedBytes implements Allocator: how much backing memory the
// store has actually allocated.
func (m *MemStore) AllocatedBytes() int64 {
	var n int64
	for _, chunk := range m.chunks {
		if chunk != nil {
			n += memChunkSize
		}
	}
	return n
}
