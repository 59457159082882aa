// Package tool holds a type without the op seam field: the errwrap
// pass does not apply, even to methods named like VFS ops.
package tool

import "errors"

var errBoom = errors.New("boom")

type scanner struct{}

// Remove shares a VFS op name but is out of scope: no finding.
func (s *scanner) Remove(path string) error { return errBoom }
