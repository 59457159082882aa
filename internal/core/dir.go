package core

import (
	"fmt"

	"lfs/internal/layout"
	"lfs/internal/vfs"
)

// dirInsert adds name→ino; a directory that grew has a new size for
// the next segment write to carry.
func (fs *FS) dirInsert(dir *layout.Inode, name string, ino layout.Ino) error {
	_, grew, err := fs.dirs.Insert(dir, name, ino)
	if grew {
		fs.markInodeDirty(dir.Ino)
	}
	return err
}

// resolve walks path components from the root.
func (fs *FS) resolve(parts []string) (*layout.Inode, error) {
	in, err := fs.getInode(layout.RootIno)
	if err != nil {
		return nil, err
	}
	for i, name := range parts {
		fs.cpu.Charge(fs.cfg.Costs.PathComponent)
		if !in.Mode.IsDir() {
			return nil, fmt.Errorf("%w: %q", vfs.ErrNotDir, parts[:i])
		}
		ino, found, err := fs.dirs.Lookup(in, name)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("%w: %q", vfs.ErrNotExist, parts[:i+1])
		}
		in, err = fs.getInode(ino)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// resolveDir resolves parts and requires a directory.
func (fs *FS) resolveDir(parts []string) (*layout.Inode, error) {
	in, err := fs.resolve(parts)
	if err != nil {
		return nil, err
	}
	if !in.Mode.IsDir() {
		return nil, fmt.Errorf("%w: %q", vfs.ErrNotDir, parts)
	}
	return in, nil
}
