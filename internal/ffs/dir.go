package ffs

import (
	"fmt"

	"lfs/internal/cache"
	"lfs/internal/layout"
	"lfs/internal/vfs"
)

// dirBlock is what FFS supplies to the shared directory layer
// (vfs.Dirs): directory data block lbn through the block cache, nil
// for a hole, or a newly allocated block when the directory grows by
// it. The layer returns the block it dirtied so the caller can force
// it to disk synchronously (Figure 1).
func (fs *FS) dirBlock(dir *layout.Inode, lbn int64, grow bool) (*cache.Block, error) {
	pb, _, _, err := fs.bmap(dir, lbn, grow)
	if err != nil || pb < 0 {
		return nil, err
	}
	return fs.getBlock(pb, !grow, "dir data")
}

// resolve walks the path components from the root, charging lookup
// cost per component, and returns the final inode — in fs.walked[slot],
// where it stays until the slot's next walk.
func (fs *FS) resolve(slot int, parts []string) (*layout.Inode, error) {
	in := &fs.walked[slot]
	var err error
	if *in, err = fs.readInode(layout.RootIno); err != nil {
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
		if *in, err = fs.readInode(ino); err != nil {
			return nil, err
		}
		if !in.Allocated() {
			return nil, fmt.Errorf("ffs: directory entry %q points at free inode %d", name, ino)
		}
	}
	return in, nil
}

// resolveDir resolves parts and requires a directory.
func (fs *FS) resolveDir(slot int, parts []string) (*layout.Inode, error) {
	in, err := fs.resolve(slot, parts)
	if err != nil {
		return nil, err
	}
	if !in.Mode.IsDir() {
		return nil, fmt.Errorf("%w: %q", vfs.ErrNotDir, parts)
	}
	return in, nil
}
