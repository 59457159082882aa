package core

import (
	"fmt"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/vfs"
)

// Fsck mounts the volume with the given configuration and runs the
// consistency check — the shared implementation behind cmd/lfsck and
// the crash-point harness. Mounting runs full crash recovery, so a
// roll-forward (and the checkpoint stabilising it) may write to the
// device.
func Fsck(d *disk.Disk, cfg Config) (*vfs.CheckReport, error) {
	fs, err := Mount(d, cfg)
	if err != nil {
		return nil, err
	}
	return fs.Check()
}

// inodeBlock is what an inode's own block is to Check: the one block
// that many inodes may hold, an inode block or the summary block of a
// commit that carried their records inline.
const inodeBlock = "inode block"

// Check verifies the consistency of a mounted LFS. The namespace half
// is vfs.CheckTree's. The allocation half is here: every block that a
// file, its inode or the inode map holds must lie in a non-clean segment,
// and no block may be held twice, except an inode block by its inodes. What
// is held, recounted per segment, must be what the usage array and the
// live-byte total say. An allocated inode must be reachable, and must have
// a disk address unless it is dirty.
func (fs *FS) Check() (*vfs.CheckReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.checkMounted(); err != nil {
		return nil, err
	}
	start := fs.clock.Now()
	rep := &vfs.CheckReport{}
	// A block is held by what of inode ino, or by inode-map block what
	// when ino is 0.
	type hold struct {
		ino  layout.Ino
		what string
	}
	name := func(h hold) string {
		if h.ino == 0 {
			return h.what
		}
		return fmt.Sprintf("inode %d %s", h.ino, h.what)
	}
	held := make(map[layout.DiskAddr]hold)
	live := make([]int64, len(fs.usage))
	bs := fs.cfg.BlockSize
	// claim checks the address a at which h holds n live bytes, and
	// returns how many blocks that is.
	claim := func(h hold, a layout.DiskAddr, n int64) int64 {
		if a.IsNil() {
			return 0
		}
		seg := fs.segOf(a)
		if seg < 0 {
			rep.Problemf("%s: address %v outside the segment area", name(h), a)
			return 1
		}
		if fs.usage[seg].State == segClean {
			rep.Problemf("%s: address %v points into clean segment %d", name(h), a, seg)
		}
		blk := fs.blockStart(seg, a)
		if prev, ok := held[blk]; ok && (prev.what != inodeBlock || h.what != inodeBlock) {
			rep.Problemf("block %v held by %s and by %s", blk, name(prev), name(h))
		}
		held[blk] = h
		live[seg] += n
		return 1
	}
	refs, err := vfs.CheckTree(rep, bs, vfs.CheckHooks{
		Inode: func(ino layout.Ino) (*layout.Inode, error) {
			if !fs.imap.peek(ino).Allocated {
				return nil, fmt.Errorf("inode %d referenced but free in the inode map", ino)
			}
			return fs.getInode(ino)
		},
		Claim: func(in *layout.Inode) error {
			for lbn := range layout.BlocksForSize(in.Size, bs) {
				a, err := fs.blockAddrOf(in, lbn)
				if err != nil {
					rep.Problemf("inode %d: mapping block %d: %v", in.Ino, lbn, err)
					continue
				}
				rep.Blocks += claim(hold{in.Ino, fmt.Sprintf("block %d", lbn)}, a, int64(bs))
			}
			rep.Blocks += claim(hold{in.Ino, "indirect"}, in.Indirect, int64(bs))
			rep.Blocks += claim(hold{in.Ino, "double indirect"}, in.DoubleIndirect, int64(bs))
			// The inner blocks the file's size needs; truncation frees the rest.
			inner := (layout.BlocksForSize(in.Size, bs) - int64(layout.NDirect) - 1) / int64(layout.AddrsPerBlock(bs))
			for k := int64(0); !in.DoubleIndirect.IsNil() && k < inner; k++ {
				a, err := fs.indirectAddrOf(in, layout.IndDoubleInner+k)
				if err != nil {
					rep.Problemf("inode %d: mapping inner indirect block %d: %v", in.Ino, k, err)
					break
				}
				rep.Blocks += claim(hold{in.Ino, fmt.Sprintf("inner indirect %d", k)}, a, int64(bs))
			}
			claim(hold{in.Ino, inodeBlock}, fs.imap.peek(in.Ino).Addr, layout.InodeSize)
			return nil
		},
		Entries: func(dir *layout.Inode, visit func([]layout.DirEntry) error) error {
			entries, err := fs.dirs.Entries(dir)
			if err != nil {
				rep.Problemf("inode %d: listing: %v", dir.Ino, err)
				return nil
			}
			return visit(entries)
		},
	})
	if err != nil {
		return nil, err
	}
	for ino, high := layout.RootIno, fs.imap.highIno(); ino <= high; ino++ {
		e := fs.imap.peek(ino)
		if e.Allocated && refs[ino] == 0 {
			rep.Problemf("inode %d allocated but unreachable", ino)
		}
		if e.Allocated && e.Addr.IsNil() && !fs.inodes.isDirty(ino) {
			rep.Problemf("inode %d allocated with no disk address and not dirty", ino)
		}
	}
	for idx, a := range fs.imap.blockAddrs {
		claim(hold{0, fmt.Sprintf("imap block %d", idx)}, a, int64(bs))
	}
	var total int64
	for seg, n := range live {
		total += n
		if fs.usage[seg].Live != n {
			rep.Problemf("segment %d: usage array says %d live bytes, recount %d", seg, fs.usage[seg].Live, n)
		}
	}
	if fs.liveBytes != total {
		rep.Problemf("live-byte total %d, recount %d", fs.liveBytes, total)
	}
	rep.Duration = fs.clock.Now().Sub(start)
	return rep, nil
}
