package disk

import "fmt"

// memChunkSize is the lazy-allocation granule of MemStore. One
// megabyte matches the default LFS segment size, so a freshly
// formatted file system allocates memory only for segments it touches.
const memChunkSize = 1 << 20

// MemStore is a lazily allocated in-memory Store. Chunks are allocated
// on first write, so a mostly empty multi-hundred-megabyte disk costs
// almost nothing.
//
// First touch is most of what the store costs (about 2 µs of kernel
// page fault per 4 KB page, whatever the allocator), so while the image
// grows sequentially, as a log fills a disk, WriteAt keeps lookAhead
// helper goroutines faulting the next chunks in. A helper owns nothing
// but its buffer: the chunk table, and with it the image, changes only
// on the caller's goroutine.
type MemStore struct {
	size     int64
	chunks   [][]byte    // index = offset / memChunkSize; a nil chunk is unallocated; nil after Close
	next     chan []byte // capacity lookAhead; made with the first helper, nil after Close
	inFlight int         // helpers started whose chunk has not been received, at most lookAhead
}

// lookAhead is how many chunks are kept in flight. A log wants chunks a
// segment-write burst at a time, and a caller parked on the receive has
// given its processor up: with several helpers outstanding every
// processor faults while it waits. Three is the knee (EXPERIMENTS.md
// "Host cost — first touch"); each slot is a spare chunk per store.
const lookAhead = 3

// NewMemStore returns an empty in-memory store of the given capacity.
// OpenStore(StoreOptions{Backend: BackendMem, Capacity: size}) is the
// by-configuration spelling of the same call.
func NewMemStore(size int64) *MemStore {
	if size <= 0 {
		panic(fmt.Sprintf("disk: non-positive MemStore size %d", size))
	}
	return &MemStore{size: size, chunks: make([][]byte, (size+memChunkSize-1)/memChunkSize)}
}

// Size returns the store capacity in bytes.
func (m *MemStore) Size() int64 { return m.size }

// Sync implements Store; memory is always "stable" here. It waits out
// the look-ahead, dropping the readied chunks, so that no helper is left
// faulting for a collection to stop and scan conservatively.
func (m *MemStore) Sync() error {
	if m.chunks == nil {
		return fmt.Errorf("disk: sync: %w", ErrClosed)
	}
	for ; m.inFlight > 0; m.inFlight-- {
		<-m.next //lfslint:allow nogoroutine waits for a helper's one buffered send; store contents and simulated time are unaffected
	}
	return nil
}

// Close releases the chunks and any readied ahead; each outstanding send
// has its slot in the buffer, so no helper waits. Close is idempotent.
func (m *MemStore) Close() error {
	m.chunks, m.next, m.inFlight = nil, nil, 0
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

// WriteAt stores p at off, allocating chunks as needed. A first touch
// takes any chunk in flight (all are zeros), wherever it lands, and one
// just above an allocated chunk tops those in flight up to lookAhead.
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
			if m.inFlight > 0 {
				//lfslint:allow nogoroutine a helper writes only a buffer unreachable until this receive of its one buffered send; store contents and simulated time are unaffected
				chunk = <-m.next
				m.inFlight--
			} else {
				chunk = make([]byte, memChunkSize)
			}
			m.chunks[ci] = chunk
			if ci > 0 && m.chunks[ci-1] != nil {
				if m.next == nil {
					m.next = make(chan []byte, lookAhead) // a slot per helper: no send waits
				}
				next := m.next
				for ; m.inFlight < lookAhead; m.inFlight++ {
					go func() {
						// make hands out never-used memory unzeroed: touch
						// each page, or the faults stay in the caller's copy.
						b := make([]byte, memChunkSize)
						for i := 0; i < len(b); i += 4096 {
							b[i] = 0
						}
						next <- b
					}()
				}
			}
		}
		copy(chunk[co:co+n], p[:n])
		p = p[n:]
		off += n
	}
	return nil
}
