package vfs

import "lfs/internal/layout"

// Walk visits every file and directory under root in depth-first,
// name-sorted order, calling fn with each path and its FileInfo. The
// root itself is visited first. Errors from fn or from the file
// system abort the walk. A directory has one name, so one reached a
// second time — through a damaged entry that leads back to an
// ancestor, say — stops the walk before fn sees it, with a *PathError
// wrapping ErrCycle. Directories are told apart by inode number.
func Walk(fs FileSystem, root string, fn func(path string, fi FileInfo) error) error {
	dirs := make(map[layout.Ino]bool)
	var walk func(path string) error
	walk = func(path string) error {
		fi, err := fs.Stat(path)
		if err != nil {
			return err
		}
		if fi.IsDir() && dirs[fi.Ino] {
			return &PathError{Op: "walk", Path: path, Err: ErrCycle}
		}
		if err := fn(path, fi); err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		dirs[fi.Ino] = true
		entries, err := fs.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := walk(childPath(path, e.Name)); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root)
}

// TreeSize returns the total size in bytes of all regular files under
// root, plus the file and directory counts. It walks with Walk, so a
// directory cycle is an error, not a walk without end.
func TreeSize(fs FileSystem, root string) (bytes int64, files, dirs int, err error) {
	err = Walk(fs, root, func(path string, fi FileInfo) error {
		if fi.IsDir() {
			dirs++
		} else {
			files++
			bytes += fi.Size
		}
		return nil
	})
	return bytes, files, dirs, err
}
