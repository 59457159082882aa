package ffs

import (
	"bytes"
	"fmt"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/vfs"
)

// Fsck performs a full-disk scan in the style of the BSD fsck: it
// reads every bitmap and inode table block, walks the namespace from
// the root (vfs.CheckTree) claiming every reachable file's blocks, and
// cross-checks reachability and both bitmaps. It reports every problem
// it finds, then repairs what FFS's write order leaves behind a crash,
// as fsck -y does (see repair). Run it on an unmounted volume; it reads
// and writes through the disk, not a cache, so the simulated cost is
// honest.
func Fsck(d *disk.Disk, cfg Config) (*vfs.CheckReport, error) {
	start := d.Clock().Now()
	buf := make([]byte, cfg.BlockSize)
	if err := d.ReadSectors(0, buf, disk.CauseTool, "fsck: superblock"); err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return nil, err
	}
	lay := newLayout(sb)
	// read reads physical block pb through the disk.
	read := func(pb int64, what string) ([]byte, error) {
		p := make([]byte, cfg.BlockSize)
		return p, d.ReadSectors(pb*lay.sectorsPerBlock, p, disk.CauseTool, what)
	}
	rep := &vfs.CheckReport{}

	// Pass 1: read every bitmap and inode table block; collect
	// allocated inodes, in inode order (inoFor grows with group and
	// slot), and claimed blocks. The blocks stay for the repair.
	inodes := make(map[layout.Ino]*layout.Inode)
	var inos []layout.Ino
	blockBitmap := make(map[int64]bool) // physical block -> allocated per bitmap
	inodeBitmap := make(map[layout.Ino]bool)
	bitmaps := make([][]byte, sb.Groups)
	tables := make(map[int64][]byte) // inode table block -> its contents
	// fresh is each group's bitmap as the repair rebuilds it: its
	// metadata blocks, here, then what pass 2 claims and the inodes it
	// reaches.
	fresh := make([][]byte, sb.Groups)
	for g := 0; g < int(sb.Groups); g++ {
		bm, err := read(lay.bitmapBlock(g), "fsck: bitmap")
		if err != nil {
			return nil, err
		}
		bitmaps[g] = bm
		fresh[g] = make([]byte, cfg.BlockSize)
		for b := 0; b < lay.metaBlocks; b++ {
			setBit(fresh[g], b)
		}
		for b := 0; b < int(sb.BlocksPerGroup); b++ {
			if testBit(bm, b) {
				blockBitmap[lay.groupStart(g)+int64(b)] = true
			}
		}
		for s := 0; s < int(sb.InodesPerGroup); s++ {
			if testBit(bm[lay.inodeBitmapOff:], s) {
				inodeBitmap[lay.inoFor(g, s)] = true
			}
		}
		for tb := 0; tb < lay.itBlocks; tb++ {
			it, err := read(lay.inodeTableStart(g)+int64(tb), "fsck: inode table")
			if err != nil {
				return nil, err
			}
			tables[lay.inodeTableStart(g)+int64(tb)] = it
			for slot := tb * lay.inodesPerBlock; slot < (tb+1)*lay.inodesPerBlock && slot < int(sb.InodesPerGroup); slot++ {
				off := (slot % lay.inodesPerBlock) * inodeSlotSize
				raw := it[off : off+inodeSlotSize]
				if layout.AllZero(raw) {
					continue
				}
				in, err := layout.DecodeInode(raw)
				if err != nil {
					rep.Problemf("group %d slot %d: %v", g, slot, err)
					continue
				}
				if in.Allocated() {
					inodes[in.Ino] = &in
					inos = append(inos, in.Ino)
				}
			}
		}
	}

	// Pass 2: the namespace walk (vfs.CheckTree) over what pass 1
	// read. Each reachable file's blocks are claimed in pointer order,
	// every indirect block read through the disk; each must be marked
	// allocated and claimed only once. A directory's blocks are read one
	// at a time, each one's entries walked before the next is read.
	claimed := make(map[int64]layout.Ino)
	apb := layout.AddrsPerBlock(cfg.BlockSize)
	// claim claims a for ino and, through depth levels of indirection,
	// every block under it.
	var claim func(ino layout.Ino, a layout.DiskAddr, depth int) error
	claim = func(ino layout.Ino, a layout.DiskAddr, depth int) error {
		if a.IsNil() {
			return nil
		}
		rep.Blocks++
		pb := lay.blockOf(a)
		if !blockBitmap[pb] {
			rep.Problemf("inode %d references unallocated block %d", ino, pb)
		}
		if prev, dup := claimed[pb]; dup {
			rep.Problemf("block %d claimed by inodes %d and %d", pb, prev, ino)
		}
		claimed[pb] = ino
		if g := lay.blockToGroup(pb); g >= 0 && g < len(fresh) && pb >= lay.dataStart(g) {
			setBit(fresh[g], int(pb-lay.groupStart(g)))
		}
		if depth == 0 {
			return nil
		}
		ib, err := read(lay.blockOf(a), "fsck: walk")
		if err != nil {
			return err
		}
		for i := range apb {
			if err := claim(ino, layout.AddrAt(ib, i), depth-1); err != nil {
				return err
			}
		}
		return nil
	}
	// claimAll claims every block of in.
	claimAll := func(in *layout.Inode) error {
		for _, a := range in.Direct {
			claim(in.Ino, a, 0) // reads nothing, so fails never
		}
		if err := claim(in.Ino, in.Indirect, 1); err != nil {
			return err
		}
		return claim(in.Ino, in.DoubleIndirect, 2)
	}
	// damaged says a directory block did not parse: the entries it held
	// are unknown, so the repair frees nothing on a guess.
	damaged := false
	indirect := func(_ *layout.Inode, _ int64, p vfs.Ptr, _ bool) (*cache.Block, error) {
		if p.Get().IsNil() {
			return nil, nil
		}
		ib, err := read(lay.blockOf(p.Get()), "fsck: walk")
		return &cache.Block{Data: ib}, err
	}
	refs, err := vfs.CheckTree(rep, cfg.BlockSize, vfs.CheckHooks{
		Inode: func(ino layout.Ino) (*layout.Inode, error) {
			if in, ok := inodes[ino]; ok {
				return in, nil
			}
			return nil, fmt.Errorf("entry for unallocated inode %d", ino)
		},
		Claim: claimAll,
		Entries: func(dir *layout.Inode, visit func([]layout.DirEntry) error) error {
			for lbn := range layout.BlocksForSize(dir.Size, cfg.BlockSize) {
				p, err := vfs.BlockPtr(dir, lbn, cfg.BlockSize, indirect, false)
				if err != nil {
					return err
				}
				if p.Get().IsNil() {
					rep.Problemf("directory %d has a hole at block %d", dir.Ino, lbn)
					continue
				}
				db, err := read(lay.blockOf(p.Get()), "fsck: walk")
				if err != nil {
					return err
				}
				// Each 512-byte directory block parses on its own: a damaged
				// one is reported and its neighbours are still visited.
				for off := 0; off < len(db); off += disk.SectorSize {
					entries, err := layout.DirBlockEntries(db[off : off+disk.SectorSize])
					if err != nil {
						rep.Problemf("inode %d block %d, directory block %d: %v", dir.Ino, lbn, off/disk.SectorSize, err)
						damaged = true
						continue
					}
					if err := visit(entries); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	// Pass 3: what pass 1 read against what the walk reached, in the
	// order pass 1 read it: the report is part of the deterministic
	// output contract (tests golden it), so it must not inherit map
	// iteration order.
	reached := rep.Blocks
	for _, ino := range inos {
		if refs[ino] == 0 {
			rep.Problemf("inode %d allocated but unreachable", ino)
			// Its entry may sit in the damaged block: it keeps its blocks.
			if damaged {
				if err := claimAll(inodes[ino]); err != nil {
					return nil, err
				}
			}
		}
		if !inodeBitmap[ino] {
			rep.Problemf("inode %d in use but free in bitmap", ino)
		}
	}
	rep.Blocks = reached // what reachable files hold
	if err := repair(d, lay, bitmaps, fresh, tables, inodes, inos, refs, damaged); err != nil {
		return nil, err
	}
	rep.Duration = d.Clock().Now().Sub(start)
	return rep, nil
}

// repair mends what FFS's write order leaves behind a crash — bitmaps
// and inodes go out with the delayed write-back, directory blocks
// synchronously — from the blocks passes 1 and 2 read: each group's
// bitmap becomes fresh, rebuilt from its metadata blocks and the blocks
// reachable inodes claim, plus the reachable inodes; an allocated inode
// nothing reaches is zeroed; and a reachable file's link count is set to
// its entries. When a directory block did not parse (damaged), the walk
// may have missed entries, so it frees nothing on a guess, as LFS
// roll-forward does: an unreachable inode keeps its slot and, claimed by
// the caller, its blocks, and no link count is lowered. Only the blocks
// that changed are written back. What it cannot explain, such as a block
// claimed twice, stays for the next check to report.
func repair(d *disk.Disk, lay diskLayout, bitmaps, fresh [][]byte, tables map[int64][]byte,
	inodes map[layout.Ino]*layout.Inode, inos []layout.Ino, refs map[layout.Ino]int, damaged bool) error {
	// The inode table blocks to write back, in ascending order as inos
	// is.
	var changed []int64
	mend := func(pb int64) {
		if n := len(changed); n == 0 || changed[n-1] != pb {
			changed = append(changed, pb)
		}
	}
	for _, ino := range inos {
		pb, off := lay.inodeBlock(ino), lay.inodeOffsetInBlock(ino)
		switch in := inodes[ino]; {
		case refs[ino] == 0 && !damaged:
			clear(tables[pb][off : off+inodeSlotSize])
			mend(pb)
			continue
		case !in.Mode.IsDir() && int(in.Nlink) != refs[ino] && (!damaged || int(in.Nlink) < refs[ino]):
			in.Nlink = uint16(refs[ino])
			in.Encode(tables[pb][off:])
			mend(pb)
		}
		setBit(fresh[lay.groupOf(ino)][lay.inodeBitmapOff:], lay.slotOf(ino))
	}
	write := func(pb int64, p []byte) error {
		return d.WriteSectors(pb*lay.sectorsPerBlock, p, true, disk.CauseTool, "fsck: repair")
	}
	for g, bm := range fresh {
		if !bytes.Equal(bm, bitmaps[g]) {
			if err := write(lay.bitmapBlock(g), bm); err != nil {
				return err
			}
		}
	}
	for _, pb := range changed {
		if err := write(pb, tables[pb]); err != nil {
			return err
		}
	}
	return nil
}
