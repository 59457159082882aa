package core

import (
	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// getDataBlock returns the cached block (ino, lbn), reading it from
// the log when it exists only on disk. With create true a missing
// block (a hole) is materialised as a zeroed dirty-to-be block; with
// create false a hole returns nil.
func (fs *FS) getDataBlock(in *layout.Inode, lbn int64, create bool) (*cache.Block, error) {
	key := dataKey(in.Ino, lbn)
	if b := fs.bc.Get(key); b != nil {
		fs.cpu.Charge(sim.CostBlockSetup)
		return b, nil
	}
	addr, err := fs.blockAddrOf(in, lbn)
	if err != nil {
		return nil, err
	}
	if addr.IsNil() {
		if !create {
			return nil, nil
		}
		b := fs.bc.Add(key)
		fs.cpu.Charge(sim.CostBlockSetup)
		return b, nil
	}
	b := fs.bc.Add(key)
	fs.cpu.Charge(sim.CostBlockSetup + sim.CostDiskOpSetup)
	if err := fs.d.ReadSectors(int64(addr), b.Data, disk.CauseReadMiss, "file read"); err != nil {
		fs.bc.Remove(key)
		return nil, err
	}
	return b, nil
}

// readAheadBlocks is how many contiguous blocks a cache-miss read
// fetches in one request (vfs.Front's read-ahead): the span handed to
// the front end is this many blocks long.
const readAheadBlocks = 16

// findData is what LFS supplies to the read path (vfs.Hooks.Find): the
// cache knows a block by (ino, lbn), so it is looked up before the block
// is mapped.
func (fs *FS) findData(in *layout.Inode, lbn int64) (*cache.Block, layout.DiskAddr, error) {
	if b := fs.bc.Get(dataKey(in.Ino, lbn)); b != nil {
		return b, layout.NilAddr, nil
	}
	addr, err := fs.blockAddrOf(in, lbn)
	return nil, addr, err
}

// writeFile stores data at off. All modifications stay in the cache;
// the segment writer assigns disk addresses later. Size growth is
// applied to the inode by the caller's bookkeeping here.
func (fs *FS) writeFile(in *layout.Inode, off int64, data []byte) error {
	bs := int64(fs.cfg.BlockSize)
	written := 0
	for written < len(data) {
		pos := off + int64(written)
		lbn := pos / bs
		bo := pos % bs
		n := int(bs - bo)
		if n > len(data)-written {
			n = len(data) - written
		}
		var b *cache.Block
		var err error
		if bo == 0 && n == int(bs) {
			// Full overwrite: no read-modify-write. Use the
			// cached block if present, else a fresh one.
			key := dataKey(in.Ino, lbn)
			if b = fs.bc.Get(key); b == nil {
				b = fs.bc.AddFrom(key, data[written:written+n])
			} else {
				copy(b.Data, data[written:written+n])
			}
			fs.cpu.Charge(sim.CostBlockSetup)
		} else {
			b, err = fs.getDataBlock(in, lbn, true)
			if err != nil {
				return err
			}
			copy(b.Data[bo:], data[written:written+n])
		}
		fs.cpu.Charge(sim.CopyCost(n))
		fs.bc.MarkDirty(b, fs.clock.Now())
		written += n
	}
	if end := uint64(off) + uint64(len(data)); end > in.Size {
		in.Size = end
		fs.markInodeDirty(in.Ino)
	}
	return nil
}

// truncateFile sets the file length. Shrinking kills the on-disk
// copies of dropped blocks in the usage array, clears their pointers,
// releases indirect blocks that no longer map anything, and discards
// their cached copies. The walk to a dropped block creates nothing: an
// indirect block that was never logged holds no pointer to clear, and a
// fresh one would be logged by the next segment write past the file's
// end.
func (fs *FS) truncateFile(in *layout.Inode, size int64) error {
	bs := int64(fs.cfg.BlockSize)
	oldBlocks := layout.BlocksForSize(in.Size, fs.cfg.BlockSize)
	newBlocks := layout.BlocksForSize(uint64(size), fs.cfg.BlockSize)

	for lbn := newBlocks; lbn < oldBlocks; lbn++ {
		p, err := vfs.BlockPtr(in, lbn, fs.cfg.BlockSize, fs.indirect, false)
		old, err := fs.repoint(in, p, err, layout.NilAddr)
		if err != nil {
			return err
		}
		fs.killBlock(old, bs)
		fs.bc.Remove(dataKey(in.Ino, lbn))
	}
	if newBlocks < oldBlocks {
		if err := fs.pruneIndirects(in, newBlocks); err != nil {
			return err
		}
	}
	// Zero the tail of the final partial block so regrowth reads
	// zeros.
	if size > 0 && size%bs != 0 && size < int64(in.Size) {
		lbn := size / bs
		b, err := fs.getDataBlock(in, lbn, false)
		if err != nil {
			return err
		}
		if b != nil {
			for i := size % bs; i < bs; i++ {
				b.Data[i] = 0
			}
			fs.bc.MarkDirty(b, fs.clock.Now())
		}
	}
	if uint64(size) != in.Size {
		in.Size = uint64(size)
		fs.markInodeDirty(in.Ino)
	}
	return nil
}

// pruneIndirects releases indirect blocks unused below newBlocks.
func (fs *FS) pruneIndirects(in *layout.Inode, newBlocks int64) error {
	bs := int64(fs.cfg.BlockSize)
	apb := int64(layout.AddrsPerBlock(fs.cfg.BlockSize))
	dropIndirect := func(id int64) error {
		old, err := fs.setIndirectAddr(in, id, layout.NilAddr)
		if err != nil {
			return err
		}
		fs.killBlock(old, bs)
		fs.bc.Remove(indKey(in.Ino, id))
		return nil
	}

	doubleStart := int64(layout.NDirect) + apb
	// Inner double-indirect blocks beyond the kept range.
	if !in.DoubleIndirect.IsNil() {
		keepInner := int64(0)
		if newBlocks > doubleStart {
			keepInner = (newBlocks - doubleStart + apb - 1) / apb
		}
		p, _ := vfs.IndirectPtr(in, layout.IndDoubleOuter, fs.indirect, false) // the inode's field: no walk, no error
		outer, err := fs.getIndirect(in, layout.IndDoubleOuter, p, false)
		if err != nil {
			return err
		}
		if outer != nil {
			for idx := keepInner; idx < apb; idx++ {
				if a := layout.AddrAt(outer.Data, int(idx)); !a.IsNil() {
					if err := dropIndirect(layout.IndDoubleInner + idx); err != nil {
						return err
					}
				} else {
					fs.bc.Remove(indKey(in.Ino, layout.IndDoubleInner+idx))
				}
			}
		}
		if keepInner == 0 {
			if err := dropIndirect(layout.IndDoubleOuter); err != nil {
				return err
			}
		}
	}
	if newBlocks <= layout.NDirect && !in.Indirect.IsNil() {
		if err := dropIndirect(layout.IndSingle); err != nil {
			return err
		}
	}
	return nil
}

// removeFileBlocks releases everything the file owns (the unlink
// path): its data and indirect blocks and their cached copies.
func (fs *FS) removeFileBlocks(in *layout.Inode) error {
	if err := fs.truncateFile(in, 0); err != nil {
		return err
	}
	// Drop any remaining cached blocks of this file.
	fs.bc.RemoveIno(in.Ino)
	return nil
}
