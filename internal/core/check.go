package core

import (
	"fmt"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

// CheckReport summarises an LFS consistency check.
type CheckReport struct {
	// Files and Dirs count reachable objects.
	Files, Dirs int
	// DataBlocks counts referenced data blocks on disk (holes and
	// cache-only blocks excluded).
	DataBlocks int64
	// OrphanedInodes counts allocated inode-map entries not
	// reachable from the root (possible after roll-forward past a
	// deletion; harmless leaks the checker can report).
	OrphanedInodes int
	// Problems lists real inconsistencies.
	Problems []string
	// Duration is the simulated time of the check.
	Duration sim.Duration
}

// Ok reports whether no problems were found.
func (r *CheckReport) Ok() bool { return len(r.Problems) == 0 }

// Fsck mounts the volume with the given configuration and runs the
// consistency check — the shared implementation behind cmd/lfsck and
// the crash-point harness. Mounting runs full crash recovery, so a
// roll-forward (and the checkpoint stabilising it) may write to the
// device.
func Fsck(d *disk.Disk, cfg Config) (*CheckReport, error) {
	fs, err := Mount(d, cfg)
	if err != nil {
		return nil, err
	}
	return fs.Check()
}

// Check verifies the consistency of a mounted LFS: every reachable
// file's blocks must be addressable and live in non-clean segments,
// directory structures must parse, the inode map must agree with
// reachability, and every referenced address must fall inside the
// segment area.
func (fs *FS) Check() (*CheckReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkMounted(); err != nil {
		return nil, err
	}
	start := fs.clock.Now()
	rep := &CheckReport{}
	// refs counts directory entries per inode; regular files may
	// legitimately be reached through several hard links.
	refs := make(map[layout.Ino]int)

	var checkAddr func(ino layout.Ino, what string, a layout.DiskAddr)
	checkAddr = func(ino layout.Ino, what string, a layout.DiskAddr) {
		if a.IsNil() {
			return
		}
		seg := fs.segOf(a)
		if seg < 0 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d: %s address %v outside the segment area", ino, what, a))
			return
		}
		if fs.usage[seg].State == segClean {
			rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d: %s address %v points into clean segment %d", ino, what, a, seg))
		}
	}

	var walk func(ino layout.Ino, path string) error
	walk = func(ino layout.Ino, path string) error {
		refs[ino]++
		if refs[ino] > 1 {
			// A second reference is fine for files (hard links)
			// and wrong for directories; either way the inode's
			// blocks were already verified.
			in, err := fs.getInode(ino)
			if err == nil && in.Mode.IsDir() {
				rep.Problems = append(rep.Problems, fmt.Sprintf("directory inode %d reached twice (at %s)", ino, path))
			}
			return nil
		}
		e := fs.imap.peek(ino)
		if !e.Allocated {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: inode %d referenced but free in the inode map", path, ino))
			return nil
		}
		in, err := fs.getInode(ino)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: reading inode %d: %v", path, ino, err))
			return nil
		}
		// Verify every block pointer.
		blocks := layout.BlocksForSize(in.Size, fs.cfg.BlockSize)
		for lbn := int64(0); lbn < blocks; lbn++ {
			a, err := fs.blockAddrOf(in, lbn)
			if err != nil {
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s: mapping block %d: %v", path, lbn, err))
				continue
			}
			if !a.IsNil() {
				rep.DataBlocks++
				checkAddr(ino, fmt.Sprintf("block %d", lbn), a)
			}
		}
		if apb := int64(layout.AddrsPerBlock(fs.cfg.BlockSize)); !in.Indirect.IsNil() && blocks <= layout.NDirect ||
			!in.DoubleIndirect.IsNil() && blocks <= layout.NDirect+apb {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: indirect block past the end of its %d blocks", path, blocks))
		}
		checkAddr(ino, "indirect", in.Indirect)
		checkAddr(ino, "double indirect", in.DoubleIndirect)
		checkAddr(ino, "inode", e.Addr)

		if !in.Mode.IsDir() {
			rep.Files++
			return nil
		}
		rep.Dirs++
		entries, err := fs.dirs.Entries(in)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: listing: %v", path, err))
			return nil
		}
		seen := map[string]bool{}
		for _, ent := range entries {
			if seen[ent.Name] {
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s: duplicate entry %q", path, ent.Name))
				continue
			}
			seen[ent.Name] = true
			child := path + "/" + ent.Name
			if path == "/" {
				child = "/" + ent.Name
			}
			if err := walk(ent.Ino, child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(layout.RootIno, "/"); err != nil {
		return nil, err
	}

	// Inode map cross-check, including link counts.
	for ino, high := layout.RootIno, fs.imap.highIno(); ino <= high; ino++ {
		e := fs.imap.peek(ino)
		if e.Allocated && refs[ino] == 0 {
			rep.OrphanedInodes++
		}
		if e.Allocated && e.Addr.IsNil() && !fs.inodes.isDirty(ino) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d allocated with no disk address and not dirty", ino))
		}
		if n := refs[ino]; n > 0 && ino != layout.RootIno {
			in, err := fs.getInode(ino)
			if err == nil && !in.Mode.IsDir() && int(in.Nlink) != n {
				rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d has nlink %d but %d directory entries", ino, in.Nlink, n))
			}
		}
	}

	// Imap block addresses must live in non-clean segments.
	for idx, a := range fs.imap.blockAddrs {
		if a.IsNil() {
			continue
		}
		seg := fs.segOf(a)
		if seg < 0 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("imap block %d address %v outside the segment area", idx, a))
		} else if fs.usage[seg].State == segClean {
			rep.Problems = append(rep.Problems, fmt.Sprintf("imap block %d address %v in clean segment %d", idx, a, seg))
		}
	}

	rep.Duration = fs.clock.Now().Sub(start)
	return rep, nil
}
