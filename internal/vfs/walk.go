package vfs

// Walk visits every file and directory under root in depth-first,
// name-sorted order, calling fn with each path and its FileInfo. The
// root itself is visited first. Errors from fn or from the file
// system abort the walk.
func Walk(fs FileSystem, root string, fn func(path string, fi FileInfo) error) error {
	fi, err := fs.Stat(root)
	if err != nil {
		return err
	}
	if err := fn(root, fi); err != nil {
		return err
	}
	if !fi.IsDir() {
		return nil
	}
	entries, err := fs.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := Walk(fs, childPath(root, e.Name), fn); err != nil {
			return err
		}
	}
	return nil
}

// TreeSize returns the total size in bytes of all regular files under
// root, plus the file and directory counts.
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
