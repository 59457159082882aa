// Package vfs is a miniature of the shared front end: the pass follows
// the op seam into whatever package holds it, and leaves a type without
// one alone.
package vfs

import "errors"

var errBoom = errors.New("boom")

// Seam stands in for the op seam's interface.
type Seam interface {
	Begin()
	End(op, path string, err error) error
}

// Front holds the seam, so its VFS operations are checked.
type Front struct {
	op Seam
}

// Stat returns through the seam: ok.
func (f *Front) Stat(path string) (int, error) {
	f.op.Begin()
	return 0, f.op.End("stat", path, nil)
}

// Rename leaks a bare sentinel and must be flagged.
func (f *Front) Rename(oldPath, newPath string) error { return errBoom }

// Model holds no seam: its operations are exempt, like vfs.Model's.
type Model struct {
	unmounted bool
}

// Rename is not checked.
func (m *Model) Rename(oldPath, newPath string) error { return errBoom }
