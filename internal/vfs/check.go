package vfs

import (
	"fmt"
	"slices"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

// CheckReport is what a consistency check found: LFS's Check (and
// lfsck), FFS's fsck.
type CheckReport struct {
	// Files and Dirs count the inodes reachable from the root.
	Files, Dirs int
	// Blocks counts the data and indirect blocks that reachable files
	// hold on disk; holes and blocks only in the cache are not counted.
	Blocks int64
	// Problems lists the inconsistencies found, in a deterministic order.
	Problems []string
	// Duration is the simulated time of the check (FFS's: §4.4's fsck).
	Duration sim.Duration
}

// Ok reports whether no problems were found.
func (r *CheckReport) Ok() bool { return len(r.Problems) == 0 }

// Problemf adds one problem to the report.
func (r *CheckReport) Problemf(format string, a ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

// CheckHooks is the allocation half of a check, which each file system
// supplies to CheckTree. Claim and Entries add the problems they find
// to the report themselves; an error they return aborts the check.
type CheckHooks struct {
	// Inode returns inode ino. An error is a problem, reported at the
	// path that reached ino.
	Inode func(ino layout.Ino) (*layout.Inode, error)
	// Claim checks where each block of the reachable inode in lives and
	// adds the data and indirect blocks it holds to the report's Blocks.
	Claim func(in *layout.Inode) error
	// Entries calls visit with directory dir's entries, all at once or a
	// block at a time as the file system reads them, and returns visit's
	// error. A block it cannot parse is a problem.
	Entries func(dir *layout.Inode, visit func([]layout.DirEntry) error) error
}

// CheckTree is the namespace half of a check, written once for every
// file system. It walks from the root and claims each reachable inode
// once. A directory reached a second time is reported and not followed,
// so a cycle ends the walk. It also reports a duplicate name in a
// directory, an indirect block past the end of its file and, in inode
// order, a file whose link count differs from the entries that reach
// it. It returns how many entries reached each inode, for the file
// system's own pass over the inodes it has allocated.
func CheckTree(rep *CheckReport, bs int, h CheckHooks) (map[layout.Ino]int, error) {
	refs := make(map[layout.Ino]int)
	var walk func(ino layout.Ino, path string) error
	walk = func(ino layout.Ino, path string) error {
		if refs[ino]++; refs[ino] > 1 {
			// A second entry is a hard link to a file, whose blocks
			// were claimed already, and wrong for a directory.
			if in, err := h.Inode(ino); err == nil && in.Mode.IsDir() {
				rep.Problemf("directory inode %d reached twice (at %s)", ino, path)
			}
			return nil
		}
		in, err := h.Inode(ino)
		if err != nil {
			rep.Problemf("%s: %v", path, err)
			return nil
		}
		if err := h.Claim(in); err != nil {
			return err
		}
		if blocks := layout.BlocksForSize(in.Size, bs); !in.Indirect.IsNil() && blocks <= layout.NDirect ||
			!in.DoubleIndirect.IsNil() && blocks <= layout.NDirect+int64(layout.AddrsPerBlock(bs)) {
			rep.Problemf("%s: indirect block past the end of its %d blocks", path, blocks)
		}
		if !in.Mode.IsDir() {
			rep.Files++
			return nil
		}
		rep.Dirs++
		seen := make(map[string]bool)
		return h.Entries(in, func(entries []layout.DirEntry) error {
			for _, e := range entries {
				if seen[e.Name] {
					rep.Problemf("%s: duplicate entry %q", path, e.Name)
					continue
				}
				seen[e.Name] = true
				if err := walk(e.Ino, childPath(path, e.Name)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := walk(layout.RootIno, "/"); err != nil {
		return nil, err
	}
	inos := make([]layout.Ino, 0, len(refs))
	for ino := range refs {
		if ino != layout.RootIno {
			inos = append(inos, ino)
		}
	}
	slices.Sort(inos)
	for _, ino := range inos {
		if in, err := h.Inode(ino); err == nil && !in.Mode.IsDir() && int(in.Nlink) != refs[ino] {
			rep.Problemf("inode %d has nlink %d but %d directory entries", ino, in.Nlink, refs[ino])
		}
	}
	return refs, nil
}

// childPath is the path of entry name in directory dir.
func childPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}
