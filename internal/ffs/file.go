package ffs

import (
	"lfs/internal/cache"
	"lfs/internal/layout"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// bmap resolves logical block lbn of the inode to a physical block.
// With alloc true, missing data and indirect blocks are allocated near
// the inode's group, and a new pointer may land in the inode itself:
// the caller writes it back. It returns pb == -1 for a hole when alloc
// is false.
func (fs *FS) bmap(in *layout.Inode, lbn int64, alloc bool) (pb int64, isNew bool, err error) {
	p, err := vfs.BlockPtr(in, lbn, fs.cfg.BlockSize, fs.indirect, alloc)
	if err != nil {
		return 0, false, err
	}
	if a := p.Get(); !a.IsNil() {
		return fs.lay.blockOf(a), false, nil
	}
	if !alloc {
		return -1, false, nil
	}
	npb, err := fs.allocBlock(fs.lay.groupOf(in.Ino))
	if err != nil {
		return 0, false, err
	}
	fs.repoint(p, fs.lay.addrOf(npb))
	return npb, true, nil
}

// getIndirect is what FFS supplies to the pointer walk
// (vfs.IndirectFunc): the indirect block p points at, through the cache.
// With create set a missing one is allocated near the inode's group,
// filled with holes, written synchronously and only then written into
// p — 4.3BSD ffs_balloc's order, so that no pointer on disk ever leads
// to an indirect block that was never written, whose zero entries would
// read as pointers to block 0.
func (fs *FS) getIndirect(in *layout.Inode, _ int64, p vfs.Ptr, create bool) (*cache.Block, error) {
	if a := p.Get(); !a.IsNil() {
		return fs.getBlock(fs.lay.blockOf(a), true, "indirect")
	}
	if !create {
		return nil, nil
	}
	npb, err := fs.allocBlock(fs.lay.groupOf(in.Ino))
	if err != nil {
		return nil, err
	}
	b, err := fs.getBlock(npb, false, "indirect")
	if err != nil {
		return nil, err
	}
	layout.FillNil(b.Data)
	if err := fs.writeBlockSync(b, "indirect"); err != nil {
		return nil, err
	}
	fs.repoint(p, fs.lay.addrOf(npb))
	return b, nil
}

// repoint stores a at p and dirties the indirect block that holds p,
// if any; never the inode, which the caller writes back.
func (fs *FS) repoint(p vfs.Ptr, a layout.DiskAddr) {
	if b := p.Set(a); b != nil {
		fs.dirty(b)
	}
}

// readAheadBlocks is how many physically contiguous blocks a
// cache-miss read fetches in one request (vfs.Front's read-ahead). FFS
// allocates sequential files contiguously within a cylinder group, so
// sequential reads benefit; that is also why the baseline wins the
// paper's seq-reread-after-random-write case (its file stays contiguous
// on disk while LFS's is scattered through the log).
const readAheadBlocks = 8

// findData is what FFS supplies to the read path (vfs.Hooks.Find): the
// cache knows a block by its physical number, so the block is mapped
// before it is looked up.
func (fs *FS) findData(in *layout.Inode, lbn int64) (*cache.Block, layout.DiskAddr, error) {
	pb, _, err := fs.bmap(in, lbn, false)
	if err != nil || pb < 0 {
		return nil, layout.NilAddr, err
	}
	return fs.bc.Get(blockKey(pb)), fs.lay.addrOf(pb), nil
}

// writeFile stores data at off, allocating blocks as needed and
// growing in's size; the caller writes the inode back.
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
		pb, isNew, err := fs.bmap(in, lbn, true)
		if err != nil {
			return err
		}
		// A full-block overwrite (or a brand new block) needs no
		// read-modify-write.
		full := isNew || (bo == 0 && n == int(bs))
		var b *cache.Block
		if full {
			if b = fs.bc.Peek(blockKey(pb)); b == nil {
				b, err = fs.getBlock(pb, false, "file write")
			} else {
				fs.cpu.Charge(sim.CostBlockSetup)
			}
		} else {
			b, err = fs.getBlock(pb, true, "file write")
		}
		if err != nil {
			return err
		}
		if isNew {
			for i := range b.Data {
				b.Data[i] = 0
			}
		}
		copy(b.Data[bo:], data[written:written+n])
		fs.cpu.Charge(sim.CopyCost(n))
		fs.dirty(b)
		written += n
	}
	if end := uint64(off) + uint64(len(data)); end > in.Size {
		in.Size = end
	}
	return nil
}

// truncateFile sets the file length, freeing blocks on shrink and
// zeroing the tail of a shortened final block so regrowth reads zeros.
func (fs *FS) truncateFile(in *layout.Inode, size int64) error {
	bs := int64(fs.cfg.BlockSize)
	oldBlocks := layout.BlocksForSize(in.Size, fs.cfg.BlockSize)
	newBlocks := layout.BlocksForSize(uint64(size), fs.cfg.BlockSize)

	// Free whole blocks beyond the new end.
	for lbn := newBlocks; lbn < oldBlocks; lbn++ {
		p, err := vfs.BlockPtr(in, lbn, fs.cfg.BlockSize, fs.indirect, false)
		if err != nil {
			return err
		}
		if a := p.Get(); !a.IsNil() {
			if err := fs.freeBlock(fs.lay.blockOf(a)); err != nil {
				return err
			}
			fs.repoint(p, layout.NilAddr)
		}
	}
	if newBlocks < oldBlocks {
		if err := fs.pruneIndirects(in, newBlocks); err != nil {
			return err
		}
	}
	// Zero the tail of the (remaining) final block.
	if size > 0 && size%bs != 0 && size < int64(in.Size) {
		lbn := size / bs
		pb, _, err := fs.bmap(in, lbn, false)
		if err != nil {
			return err
		}
		if pb >= 0 {
			b, err := fs.getBlock(pb, true, "truncate tail")
			if err != nil {
				return err
			}
			for i := size % bs; i < bs; i++ {
				b.Data[i] = 0
			}
			fs.dirty(b)
		}
	}
	in.Size = uint64(size)
	return nil
}

// pruneIndirects frees indirect blocks that no longer map any block
// below newBlocks.
func (fs *FS) pruneIndirects(in *layout.Inode, newBlocks int64) error {
	apb := int64(layout.AddrsPerBlock(fs.cfg.BlockSize))
	// Single indirect covers [NDirect, NDirect+apb).
	if newBlocks <= layout.NDirect && !in.Indirect.IsNil() {
		if err := fs.freeBlock(fs.lay.blockOf(in.Indirect)); err != nil {
			return err
		}
		in.Indirect = layout.NilAddr
	}
	// Double indirect covers [NDirect+apb, ...).
	doubleStart := int64(layout.NDirect) + apb
	if in.DoubleIndirect.IsNil() {
		return nil
	}
	outer, err := fs.getBlock(fs.lay.blockOf(in.DoubleIndirect), true, "indirect")
	if err != nil {
		return err
	}
	// keepOuter is the number of inner indirect blocks still needed.
	keepOuter := int64(0)
	if newBlocks > doubleStart {
		keepOuter = (newBlocks - doubleStart + apb - 1) / apb
	}
	changedOuter := false
	for idx := keepOuter; idx < apb; idx++ {
		a := layout.AddrAt(outer.Data, int(idx))
		if a.IsNil() {
			continue
		}
		if err := fs.freeBlock(fs.lay.blockOf(a)); err != nil {
			return err
		}
		layout.SetAddrAt(outer.Data, int(idx), layout.NilAddr)
		changedOuter = true
	}
	if keepOuter == 0 {
		if err := fs.freeBlock(fs.lay.blockOf(in.DoubleIndirect)); err != nil {
			return err
		}
		in.DoubleIndirect = layout.NilAddr
	} else if changedOuter {
		fs.dirty(outer)
	}
	return nil
}
