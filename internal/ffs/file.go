package ffs

import (
	"fmt"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
)

// bmap resolves logical block lbn of the inode to a physical block.
// With alloc true, missing data and indirect blocks are allocated near
// the inode's group, and a new pointer may land in the inode itself:
// the caller writes it back. It returns pb == -1 for a hole when alloc
// is false.
func (fs *FS) bmap(in *layout.Inode, lbn int64, alloc bool) (pb int64, isNew bool, err error) {
	path, err := layout.MapBlock(lbn, fs.cfg.BlockSize)
	if err != nil {
		return 0, false, err
	}
	group := fs.lay.groupOf(in.Ino)

	// ensureIndirect returns the block behind addr, allocating a fresh
	// indirect block when absent.
	ensureIndirect := func(addr layout.DiskAddr) (*cache.Block, layout.DiskAddr, bool, error) {
		if !addr.IsNil() {
			b, err := fs.getBlock(fs.lay.blockOf(addr), true, "indirect")
			return b, addr, false, err
		}
		if !alloc {
			return nil, layout.NilAddr, false, nil
		}
		npb, err := fs.allocBlock(group)
		if err != nil {
			return nil, layout.NilAddr, false, err
		}
		b, err := fs.getBlock(npb, false, "indirect")
		if err != nil {
			return nil, layout.NilAddr, false, err
		}
		layout.FillNil(b.Data)
		fs.dirty(b)
		return b, fs.lay.addrOf(npb), true, nil
	}

	switch path.Level {
	case 0:
		addr := in.Direct[path.Direct]
		if addr.IsNil() {
			if !alloc {
				return -1, false, nil
			}
			npb, err := fs.allocBlock(group)
			if err != nil {
				return 0, false, err
			}
			in.Direct[path.Direct] = fs.lay.addrOf(npb)
			return npb, true, nil
		}
		return fs.lay.blockOf(addr), false, nil

	case 1:
		ib, addr, created, err := ensureIndirect(in.Indirect)
		if err != nil || ib == nil {
			return -1, false, err
		}
		if created {
			in.Indirect = addr
		}
		entry := layout.AddrAt(ib.Data, path.Inner)
		if entry.IsNil() {
			if !alloc {
				return -1, false, nil
			}
			npb, err := fs.allocBlock(group)
			if err != nil {
				return 0, false, err
			}
			layout.SetAddrAt(ib.Data, path.Inner, fs.lay.addrOf(npb))
			fs.dirty(ib)
			return npb, true, nil
		}
		return fs.lay.blockOf(entry), false, nil

	case 2:
		outer, addr, created, err := ensureIndirect(in.DoubleIndirect)
		if err != nil || outer == nil {
			return -1, false, err
		}
		if created {
			in.DoubleIndirect = addr
		}
		innerAddr := layout.AddrAt(outer.Data, path.Outer)
		inner, newInnerAddr, createdInner, err := ensureIndirect(innerAddr)
		if err != nil || inner == nil {
			return -1, false, err
		}
		if createdInner {
			layout.SetAddrAt(outer.Data, path.Outer, newInnerAddr)
			fs.dirty(outer)
		}
		entry := layout.AddrAt(inner.Data, path.Inner)
		if entry.IsNil() {
			if !alloc {
				return -1, false, nil
			}
			npb, err := fs.allocBlock(group)
			if err != nil {
				return 0, false, err
			}
			layout.SetAddrAt(inner.Data, path.Inner, fs.lay.addrOf(npb))
			fs.dirty(inner)
			return npb, true, nil
		}
		return fs.lay.blockOf(entry), false, nil
	}
	return 0, false, fmt.Errorf("ffs: unreachable bmap level")
}

// readAheadBlocks is how many physically contiguous blocks a
// cache-miss read fetches in one transfer — the standard UNIX
// read-ahead SunOS performed. FFS allocates sequential files
// contiguously within a cylinder group, so sequential reads benefit;
// that is also why the baseline wins the paper's
// seq-reread-after-random-write case (its file stays contiguous on
// disk while LFS's is scattered through the log).
const readAheadBlocks = 8

// readBlockRA returns the contents of file block lbn through the cache,
// nil for a hole. On a miss during a detected sequential scan it reads
// up to readAheadBlocks physically contiguous blocks in one request.
// The bytes are valid until the next cache insertion.
func (fs *FS) readBlockRA(in *layout.Inode, lbn int64) ([]byte, error) {
	sequential := lbn == 0 || fs.lastRead[in.Ino]+1 == lbn
	fs.lastRead[in.Ino] = lbn
	pb, _, err := fs.bmap(in, lbn, false)
	if err != nil {
		return nil, err
	}
	if pb < 0 {
		return nil, nil // hole
	}
	if b := fs.bc.Get(blockKey(pb)); b != nil {
		fs.cpu.Charge(fs.cfg.Costs.BlockSetup)
		return b.Data, nil
	}
	maxLbn := layout.BlocksForSize(in.Size, fs.cfg.BlockSize)
	limit := 1
	if sequential {
		limit = readAheadBlocks
	}
	run := 1
	for run < limit && lbn+int64(run) < maxLbn {
		next, _, err := fs.bmap(in, lbn+int64(run), false)
		if err != nil {
			return nil, err
		}
		if next != pb+int64(run) || fs.bc.Peek(blockKey(next)) != nil {
			break
		}
		run++
	}
	bs := fs.cfg.BlockSize
	fs.cpu.Charge(fs.cfg.Costs.BlockSetup + fs.cfg.Costs.DiskOpSetup)
	span := fs.span[:run*bs]
	if err := fs.d.ReadSectors(fs.lay.sectorOf(pb), span, disk.CauseReadMiss, "file read"); err != nil {
		return nil, err
	}
	first := fs.bc.AddFrom(blockKey(pb), span[:bs])
	for i := 1; i < run; i++ {
		fs.bc.AddFrom(blockKey(pb+int64(i)), span[i*bs:(i+1)*bs])
	}
	if first.Data == nil {
		// Fewer than run blocks were evictable (a cache smaller than the
		// run, or mostly dirty), so inserting the tail evicted the head:
		// the span still holds the caller's bytes.
		return span[:bs], nil
	}
	return first.Data, nil
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
				fs.cpu.Charge(fs.cfg.Costs.BlockSetup)
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
		fs.cpu.Charge(fs.cfg.Costs.Copy(n))
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
		if err := fs.freeFileBlock(in, lbn); err != nil {
			return err
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

// freeFileBlock frees the data block behind lbn (if any) and clears
// its pointer.
func (fs *FS) freeFileBlock(in *layout.Inode, lbn int64) error {
	path, err := layout.MapBlock(lbn, fs.cfg.BlockSize)
	if err != nil {
		return err
	}
	switch path.Level {
	case 0:
		if a := in.Direct[path.Direct]; !a.IsNil() {
			if err := fs.freeBlock(fs.lay.blockOf(a)); err != nil {
				return err
			}
			in.Direct[path.Direct] = layout.NilAddr
		}
	case 1:
		if in.Indirect.IsNil() {
			return nil
		}
		ib, err := fs.getBlock(fs.lay.blockOf(in.Indirect), true, "indirect")
		if err != nil {
			return err
		}
		if a := layout.AddrAt(ib.Data, path.Inner); !a.IsNil() {
			if err := fs.freeBlock(fs.lay.blockOf(a)); err != nil {
				return err
			}
			layout.SetAddrAt(ib.Data, path.Inner, layout.NilAddr)
			fs.dirty(ib)
		}
	case 2:
		if in.DoubleIndirect.IsNil() {
			return nil
		}
		outer, err := fs.getBlock(fs.lay.blockOf(in.DoubleIndirect), true, "indirect")
		if err != nil {
			return err
		}
		innerAddr := layout.AddrAt(outer.Data, path.Outer)
		if innerAddr.IsNil() {
			return nil
		}
		inner, err := fs.getBlock(fs.lay.blockOf(innerAddr), true, "indirect")
		if err != nil {
			return err
		}
		if a := layout.AddrAt(inner.Data, path.Inner); !a.IsNil() {
			if err := fs.freeBlock(fs.lay.blockOf(a)); err != nil {
				return err
			}
			layout.SetAddrAt(inner.Data, path.Inner, layout.NilAddr)
			fs.dirty(inner)
		}
	}
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
