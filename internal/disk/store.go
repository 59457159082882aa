// Package disk implements the simulated block device the file systems
// run on: a sector-addressed store with an explicit service-time model
// (seek proportional to cylinder distance, rotational latency, transfer
// at a configurable bandwidth), I/O statistics, access tracing, and
// fault injection.
//
// The paper's testbed was a WREN IV disk (1.3 MB/s maximum transfer
// bandwidth, 17.5 ms average seek) on a Sun-4/260. The package's
// WrenIV constructor reproduces those parameters; all experiments in
// this repository are run against it unless they sweep disk parameters
// explicitly.
//
// Time model: every request computes a service time from the current
// head position and the request geometry. Synchronous requests advance
// the simulated clock to the request's completion. Asynchronous writes
// only extend the disk's busy horizon, modelling background I/O that
// overlaps computation; Drain waits for the horizon.
//
// Persistence is pluggable: the Store interface has four backends
// (in-memory, copy-on-write memory, sparse file, memory-mapped file),
// selected through OpenStore. The optional capability, O(1) snapshots,
// is discovered by interface assertion on the concrete store. Every
// backend produces byte-identical images for the same request stream;
// fstest.RunStoreConformance is the proof.
package disk

import (
	"errors"
	"fmt"
)

// SectorSize is the unit of disk addressing, in bytes.
const SectorSize = 512

// Sentinel errors for store access, tested with errors.Is.
var (
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store is closed")
	// ErrOutOfRange reports an access outside the store capacity.
	ErrOutOfRange = errors.New("store access out of range")
)

// Store is the persistence backend of a simulated disk. Offsets and
// lengths are in bytes and always sector-aligned when called through
// Disk. Implementations must be safe for use by a single goroutine;
// Disk adds no locking of its own.
//
// The one optional capability, Snapshotter (O(1) copy-on-write
// snapshot/restore), is discovered by interface assertion.
type Store interface {
	// ReadAt fills p from the store at off. Unwritten regions read
	// as zero bytes.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at off.
	WriteAt(p []byte, off int64) error
	// Sync flushes buffered writes to stable storage. Memory-backed
	// stores have nothing to flush.
	Sync() error
	// Size returns the store capacity in bytes.
	Size() int64
	// Close releases resources held by the store. Close is
	// idempotent: a second call is a no-op returning nil.
	Close() error
}

// Snapshotter is an optional Store capability: cheap point-in-time
// snapshots of the full image that can later be restored. The
// crash-point sweep uses it to rewind a volume to the state before
// write k instead of replaying the whole workload per crash point.
type Snapshotter interface {
	// Snapshot captures the current image. The snapshot remains
	// valid across later writes and restores until Release.
	Snapshot() (Snapshot, error)
}

// Snapshot is a point-in-time image captured from a Snapshotter.
type Snapshot interface {
	// Restore resets the originating store to the snapshot state.
	// A snapshot can be restored any number of times.
	Restore() error
	// Release frees the snapshot; restoring afterwards is an error.
	Release() error
}

// StoreBackend selects a Store implementation in StoreOptions.
type StoreBackend int

const (
	// BackendMem is the lazily allocated in-memory store (MemStore):
	// fast, sparse, no snapshots.
	BackendMem StoreBackend = iota
	// BackendCow is the copy-on-write in-memory store (CowMemStore):
	// sparse, with O(1) snapshot/restore.
	BackendCow
	// BackendFile is the sparse file-backed store (FileStore): images
	// persist between runs; unwritten regions occupy no disk blocks.
	BackendFile
	// BackendMmap is the memory-mapped file store (MmapStore): the
	// image is mapped shared, so multi-GB volumes are accessed at
	// memory speed without per-request system calls.
	BackendMmap

	numBackends // bounds the backend space
)

// backendNames indexes StoreBackend.String.
var backendNames = [numBackends]string{"mem", "cow", "file", "mmap"}

// String returns the backend's stable name ("mem", "cow", "file",
// "mmap").
func (b StoreBackend) String() string {
	if b < 0 || b >= numBackends {
		return fmt.Sprintf("backend(%d)", int(b))
	}
	return backendNames[b]
}

// StoreOptions configures OpenStore, the single constructor for every
// store backend.
type StoreOptions struct {
	// Backend selects the implementation; the zero value is
	// BackendMem.
	Backend StoreBackend
	// Path locates the image file for the file-backed backends
	// (BackendFile, BackendMmap); ignored by the memory backends.
	Path string
	// Capacity is the store size in bytes; must be positive.
	Capacity int64
}

// OpenStore opens a store described by opts. It replaces the
// positional NewMemStore/OpenFileStore constructors: one options
// struct covers every backend, so call sites select backends by
// configuration rather than by constructor name.
func OpenStore(opts StoreOptions) (Store, error) {
	if opts.Capacity <= 0 {
		return nil, fmt.Errorf("disk: non-positive store capacity %d: %w", opts.Capacity, ErrOutOfRange)
	}
	switch opts.Backend {
	case BackendMem:
		return NewMemStore(opts.Capacity), nil
	case BackendCow:
		return NewCowMemStore(opts.Capacity), nil
	case BackendFile:
		if opts.Path == "" {
			return nil, fmt.Errorf("disk: %s backend needs a path", opts.Backend)
		}
		return OpenFileStore(opts.Path, opts.Capacity)
	case BackendMmap:
		if opts.Path == "" {
			return nil, fmt.Errorf("disk: %s backend needs a path", opts.Backend)
		}
		return OpenMmapStore(opts.Path, opts.Capacity)
	}
	return nil, fmt.Errorf("disk: unknown store backend %d", int(opts.Backend))
}

// checkStoreRange validates an access of len(p) bytes at off against a
// store of the given size, returning an ErrOutOfRange-wrapping error
// for violations. Zero-length accesses are valid anywhere in
// [0, size]. The length is taken off the size, not added to the offset:
// off+len(p) wraps for an off near math.MaxInt64.
func checkStoreRange(p []byte, off, size int64) error {
	if off < 0 || off > size-int64(len(p)) {
		return fmt.Errorf("disk: store access of %d bytes at %d outside capacity %d: %w",
			len(p), off, size, ErrOutOfRange)
	}
	return nil
}
