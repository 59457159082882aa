// Package core is a deliberately broken miniature of a file system:
// exported VFS operations that return errors without going through
// the op seam's End or WrapPathError must be flagged by the errwrap
// pass.
package core

import (
	"errors"

	"lfs/internal/obs"
)

var errBoom = errors.New("boom")

// FS stands in for the real file system: op is its seam, log a field
// whose type merely has an End method too.
type FS struct {
	op  *obs.OpCapture
	log *journal
}

type journal struct{}

func (j *journal) End(op, path string, err error) error { return err }

// WrapPathError stands in for vfs.WrapPathError.
func WrapPathError(op, path string, err error) error { return err }

// Create returns through the seam: ok.
func (fs *FS) Create(path string) error {
	fs.op.Begin()
	return fs.op.End("create", path, nil)
}

// Write returns through a non-seam field's End and must be flagged.
func (fs *FS) Write(path string, off int64, data []byte) error {
	return fs.log.End("write", path, errBoom)
}

// Mkdir returns through WrapPathError: ok.
func (fs *FS) Mkdir(path string) error { return WrapPathError("mkdir", path, errBoom) }

// Remove leaks a bare sentinel and must be flagged.
func (fs *FS) Remove(path string) error { return errBoom }

// Read leaks a bare sentinel in a multi-result return and must be
// flagged.
func (fs *FS) Read(path string, off int64, buf []byte) (int, error) { return 0, errBoom }

// Sync returns nil: ok.
func (fs *FS) Sync() error { return nil }

// Truncate returns a bare error variable and must be flagged.
func (fs *FS) Truncate(path string, size int64) error {
	err := errBoom
	return err
}

// Unmount returns through the seam; the closure's own bare return is
// not a VFS return and is skipped.
func (fs *FS) Unmount() error {
	fail := func() error { return errBoom }
	return fs.op.End("unmount", "/", fail())
}

// helper is not a VFS operation: no finding.
func (fs *FS) helper() error { return errBoom }

// Link demonstrates the escape hatch.
//
//lfslint:allow errwrap demonstration of the escape hatch
func (fs *FS) Link(oldPath, newPath string) error { return errBoom }
