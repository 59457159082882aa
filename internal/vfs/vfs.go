// Package vfs defines the file-system interface implemented by both
// the FFS baseline and the LFS storage manager, plus path utilities
// and an in-memory model file system that serves as the behavioural
// oracle for property-based tests: any sequence of operations applied
// to a real file system and to the model must produce identical
// observable results.
package vfs

import (
	"errors"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

// Sentinel errors returned by all FileSystem implementations. Callers
// test them with errors.Is; implementations wrap them with path
// context.
var (
	// ErrNotExist reports that a path component does not exist.
	ErrNotExist = errors.New("file does not exist")
	// ErrExist reports that the target of Create/Mkdir/Rename
	// already exists.
	ErrExist = errors.New("file already exists")
	// ErrIsDir reports a file operation applied to a directory.
	ErrIsDir = errors.New("is a directory")
	// ErrNotDir reports a directory operation applied to a file, or
	// a path that uses a file as a directory.
	ErrNotDir = errors.New("not a directory")
	// ErrNotEmpty reports removal of a non-empty directory.
	ErrNotEmpty = errors.New("directory not empty")
	// ErrNoSpace reports that the disk is full.
	ErrNoSpace = errors.New("no space left on device")
	// ErrTooLarge reports a write beyond the maximum file size.
	ErrTooLarge = errors.New("file too large")
	// ErrInvalid reports an invalid argument (bad path, negative
	// offset, ...).
	ErrInvalid = errors.New("invalid argument")
	// ErrUnmounted reports an operation on an unmounted file
	// system.
	ErrUnmounted = errors.New("file system is unmounted")
	// ErrCycle reports a directory a walk reached twice: a damaged
	// entry that names a directory already on the walk.
	ErrCycle = errors.New("directory reached twice")
)

// PathError records an error from a file-system operation together
// with the operation name and the path it was applied to, in the
// manner of os.PathError. Both file systems return *PathError from
// every FileSystem method; Unwrap preserves errors.Is against the
// sentinels above.
type PathError struct {
	// Op is the operation name ("create", "write", "rename", ...).
	Op string
	// Path is the path the operation was applied to. For two-path
	// operations (Rename, Link) it is the source path.
	Path string
	// Err is the underlying error, wrapping one of the sentinels.
	Err error
}

func (e *PathError) Error() string { return e.Op + " " + e.Path + ": " + e.Err.Error() }

// Unwrap returns the underlying error, so errors.Is sees through the
// path context to the sentinel.
func (e *PathError) Unwrap() error { return e.Err }

// WrapPathError wraps err in a *PathError unless it is nil or already
// one (an op implemented in terms of another must not double-wrap).
func WrapPathError(op, path string, err error) error {
	if err == nil {
		return nil
	}
	var pe *PathError
	if errors.As(err, &pe) {
		return err
	}
	return &PathError{Op: op, Path: path, Err: err}
}

// FileInfo describes a file, as returned by Stat.
type FileInfo struct {
	// Ino is the file's inode number.
	Ino layout.Ino
	// Mode holds the type and permission bits.
	Mode layout.FileMode
	// Size is the length in bytes.
	Size int64
	// Nlink counts directory references.
	Nlink int
	// Mtime is the last modification time.
	Mtime sim.Time
	// Atime is the last access time. LFS keeps it in the inode map
	// (paper footnote 2) so reads do not relocate inodes.
	Atime sim.Time
}

// IsDir reports whether the entry is a directory.
func (fi FileInfo) IsDir() bool { return fi.Mode.IsDir() }

// FileSystem is the operation set both file systems implement. All
// paths are absolute ("/a/b"). Implementations are not safe for
// concurrent use unless documented otherwise; the simulated clock is
// single-threaded.
type FileSystem interface {
	// Create makes a new empty regular file. It fails with ErrExist
	// if the path already exists.
	Create(path string) error
	// Mkdir makes a new empty directory.
	Mkdir(path string) error
	// Write stores data at the given offset, growing the file as
	// needed; gaps read back as zeros.
	Write(path string, off int64, data []byte) error
	// Read fills buf from the given offset, returning the number of
	// bytes read. Reading at or past EOF returns 0, nil.
	Read(path string, off int64, buf []byte) (int, error)
	// Stat describes the file.
	Stat(path string) (FileInfo, error)
	// ReadDir lists a directory in name order.
	ReadDir(path string) ([]layout.DirEntry, error)
	// Remove unlinks a file or removes an empty directory.
	Remove(path string) error
	// Rename moves oldPath to newPath. newPath must not exist.
	Rename(oldPath, newPath string) error
	// Link creates a second name for an existing regular file
	// (hard link); newPath must not exist and directories cannot
	// be linked.
	Link(oldPath, newPath string) error
	// Truncate sets the file length, zero-filling on growth.
	Truncate(path string, size int64) error
	// Sync forces all buffered modifications to disk.
	Sync() error
	// Unmount syncs and detaches; further operations fail with
	// ErrUnmounted.
	Unmount() error
}
