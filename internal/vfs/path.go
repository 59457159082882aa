package vfs

import (
	"fmt"
	"slices"
	"strings"

	"lfs/internal/layout"
)

// SplitPath validates an absolute path and returns its components.
// "/" returns an empty slice. Empty components (from "//") are
// rejected, as are "." and ".." — the workloads and tools in this
// repository always use canonical paths, and rejecting the relative
// forms keeps every implementation's lookup identical.
func SplitPath(path string) ([]string, error) {
	if path == "/" {
		return nil, nil
	}
	// One slot per separator is never too few, so the slice is sized once.
	return AppendPath(make([]string, 0, strings.Count(path, "/")), path)
}

// PathDepth is the capacity a file system gives the slice it splits
// paths into: a deeper path (for Rename, two paths deeper together) is
// split all the same, into a slice append allocates for that call.
const PathDepth = 16

// AppendPath is SplitPath into the caller's memory: it appends path's
// components to dst and returns the extended slice, or nil and
// SplitPath's error. It keeps no reference to dst, so a file system can
// split every path into one slice it owns — under the lock it holds for
// the operation — and allocate nothing per call.
func AppendPath(dst []string, path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: path %q is not absolute", ErrInvalid, path)
	}
	if path == "/" {
		return dst, nil
	}
	rest := strings.TrimSuffix(path[1:], "/")
	for {
		p := rest
		i := strings.IndexByte(rest, '/')
		if i >= 0 {
			p = rest[:i]
		}
		if p == "" || p == "." || p == ".." {
			return nil, fmt.Errorf("%w: path %q has component %q", ErrInvalid, path, p)
		}
		// What layout.ValidName rejects in a name without a separator,
		// found at IndexByte's speed; it is asked only for the words.
		if len(p) > layout.MaxNameLen || strings.IndexByte(p, 0) >= 0 {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, layout.ValidName(p))
		}
		dst = append(dst, p)
		if i < 0 {
			return dst, nil
		}
		rest = rest[i+1:]
	}
}

// SplitDirBase validates path and returns the parent components and
// the final name. The root itself has no base and is rejected.
func SplitDirBase(path string) (dir []string, base string, err error) {
	dir, base, err = AppendDirBase(make([]string, 0, strings.Count(path, "/")), path)
	return dir[:len(dir):len(dir)], base, err
}

// AppendDirBase is SplitDirBase into the caller's memory: the parent
// components are appended to dst, and the extended slice returned with
// the capacity it has left — the slot behind it held the base — so a
// second path can be split behind the first.
func AppendDirBase(dst []string, path string) (dir []string, base string, err error) {
	parts, err := AppendPath(dst, path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == len(dst) {
		return nil, "", fmt.Errorf("%w: root has no parent", ErrInvalid)
	}
	n := len(parts) - 1
	return parts[:n], parts[n], nil
}

// within reports whether dir, a rename target's parent components, is
// the moved directory srcDir/srcBase or below it. Components are
// compared, not strings, so a trailing slash cannot hide the move.
func within(dir, srcDir []string, srcBase string) bool {
	n := len(srcDir)
	return len(dir) > n && dir[n] == srcBase && slices.Equal(dir[:n], srcDir)
}
