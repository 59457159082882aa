package ffs

import (
	"fmt"
	"sort"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

// FsckReport summarises a full-scan consistency check.
type FsckReport struct {
	// Duration is the simulated time the scan took. This is the
	// number the paper contrasts with LFS's checkpoint mount: fsck
	// reads every inode table and walks every file, so its cost
	// grows with the file system, not with the crash damage.
	Duration sim.Duration
	// InodesScanned counts inode slots examined.
	InodesScanned int
	// FilesFound counts allocated inodes reachable from the root.
	FilesFound int
	// BlocksInUse counts data and indirect blocks referenced by
	// reachable files.
	BlocksInUse int64
	// Problems lists inconsistencies found (orphaned inodes, bitmap
	// mismatches, cross-allocated blocks).
	Problems []string
}

// Fsck performs a full-disk scan in the style of the BSD fsck: it
// reads every bitmap and inode table block, walks every allocated
// inode's block pointers, and cross-checks reachability from the root
// and bitmap consistency. The file system must be freshly mounted
// (i.e. run Fsck before issuing operations); it reads through the
// disk, not the cache, so the simulated cost is honest.
func Fsck(d *disk.Disk, cfg Config) (*FsckReport, error) {
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
	rep := &FsckReport{}

	// Pass 1: read every bitmap and inode table block; collect
	// allocated inodes and claimed blocks.
	type inodeRec struct {
		in layout.Inode
	}
	inodes := make(map[layout.Ino]inodeRec)
	blockBitmap := make(map[int64]bool) // physical block -> allocated per bitmap
	inodeBitmap := make(map[layout.Ino]bool)
	for g := 0; g < int(sb.Groups); g++ {
		bm := make([]byte, cfg.BlockSize)
		if err := d.ReadSectors(lay.bitmapBlock(g)*lay.sectorsPerBlock, bm, disk.CauseTool, "fsck: bitmap"); err != nil {
			return nil, err
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
			it := make([]byte, cfg.BlockSize)
			pb := lay.inodeTableStart(g) + int64(tb)
			if err := d.ReadSectors(pb*lay.sectorsPerBlock, it, disk.CauseTool, "fsck: inode table"); err != nil {
				return nil, err
			}
			for slot := tb * lay.inodesPerBlock; slot < (tb+1)*lay.inodesPerBlock && slot < int(sb.InodesPerGroup); slot++ {
				rep.InodesScanned++
				off := (slot % lay.inodesPerBlock) * inodeSlotSize
				raw := it[off : off+inodeSlotSize]
				zero := true
				for _, x := range raw {
					if x != 0 {
						zero = false
						break
					}
				}
				if zero {
					continue
				}
				in, err := layout.DecodeInode(raw)
				if err != nil {
					rep.Problems = append(rep.Problems, fmt.Sprintf("group %d slot %d: %v", g, slot, err))
					continue
				}
				if in.Allocated() {
					inodes[in.Ino] = inodeRec{in: in}
				}
			}
		}
	}

	// Pass 2: walk reachable files from the root, counting their
	// blocks and verifying each claimed block is marked allocated
	// and claimed only once.
	claimed := make(map[int64]layout.Ino)
	var walkBlocks func(in *layout.Inode) error
	readBlock := func(pb int64, p []byte) error {
		return d.ReadSectors(pb*lay.sectorsPerBlock, p, disk.CauseTool, "fsck: walk")
	}
	claim := func(a layout.DiskAddr, ino layout.Ino) {
		if a.IsNil() {
			return
		}
		pb := lay.blockOf(a)
		rep.BlocksInUse++
		if !blockBitmap[pb] {
			rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d references unallocated block %d", ino, pb))
		}
		if prev, dup := claimed[pb]; dup {
			rep.Problems = append(rep.Problems, fmt.Sprintf("block %d claimed by inodes %d and %d", pb, prev, ino))
		}
		claimed[pb] = ino
	}
	apb := layout.AddrsPerBlock(cfg.BlockSize)
	walkBlocks = func(in *layout.Inode) error {
		for _, a := range in.Direct {
			claim(a, in.Ino)
		}
		if !in.Indirect.IsNil() {
			claim(in.Indirect, in.Ino)
			ib := make([]byte, cfg.BlockSize)
			if err := readBlock(lay.blockOf(in.Indirect), ib); err != nil {
				return err
			}
			for i := range apb {
				claim(layout.AddrAt(ib, i), in.Ino)
			}
		}
		if !in.DoubleIndirect.IsNil() {
			claim(in.DoubleIndirect, in.Ino)
			ob := make([]byte, cfg.BlockSize)
			if err := readBlock(lay.blockOf(in.DoubleIndirect), ob); err != nil {
				return err
			}
			for i := range apb {
				oa := layout.AddrAt(ob, i)
				if oa.IsNil() {
					continue
				}
				claim(oa, in.Ino)
				ib := make([]byte, cfg.BlockSize)
				if err := readBlock(lay.blockOf(oa), ib); err != nil {
					return err
				}
				for j := range apb {
					claim(layout.AddrAt(ib, j), in.Ino)
				}
			}
		}
		return nil
	}

	// refs counts directory entries per inode; hard links make
	// multiple references to regular files legitimate.
	refs := make(map[layout.Ino]int)
	var walkDir func(ino layout.Ino) error
	walkDir = func(ino layout.Ino) error {
		rec, ok := inodes[ino]
		if !ok {
			rep.Problems = append(rep.Problems, fmt.Sprintf("directory entry references missing inode %d", ino))
			return nil
		}
		refs[ino]++
		if refs[ino] > 1 {
			if rec.in.Mode.IsDir() {
				rep.Problems = append(rep.Problems, fmt.Sprintf("directory inode %d reached twice", ino))
			}
			return nil
		}
		rep.FilesFound++
		in := rec.in
		if err := walkBlocks(&in); err != nil {
			return err
		}
		blocks := layout.BlocksForSize(in.Size, cfg.BlockSize)
		if !in.Indirect.IsNil() && blocks <= layout.NDirect || !in.DoubleIndirect.IsNil() && blocks <= layout.NDirect+int64(apb) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d: indirect block past the end of its %d blocks", ino, blocks))
		}
		if !in.Mode.IsDir() {
			return nil
		}
		// Scan directory entries.
		for lbn := int64(0); lbn < blocks; lbn++ {
			path, err := layout.MapBlock(lbn, cfg.BlockSize)
			if err != nil {
				return err
			}
			var a layout.DiskAddr
			switch path.Level {
			case 0:
				a = in.Direct[path.Direct]
			case 1:
				if in.Indirect.IsNil() {
					continue
				}
				ib := make([]byte, cfg.BlockSize)
				if err := readBlock(lay.blockOf(in.Indirect), ib); err != nil {
					return err
				}
				a = layout.AddrAt(ib, path.Inner)
			default:
				continue // directories never reach double indirection here
			}
			if a.IsNil() {
				continue
			}
			db := make([]byte, cfg.BlockSize)
			if err := readBlock(lay.blockOf(a), db); err != nil {
				return err
			}
			entries, err := layout.DirBlockEntries(db)
			if err != nil {
				rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d dir block %d: %v", ino, lbn, err))
				continue
			}
			for _, e := range entries {
				if err := walkDir(e.Ino); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walkDir(layout.RootIno); err != nil {
		return nil, err
	}

	// Pass 3: cross-checks, including link counts. Problems are
	// reported in ascending inode order: the report is part of the
	// deterministic output contract (lfsck prints it, tests golden
	// it), so it must not inherit map iteration order.
	inos := make([]layout.Ino, 0, len(inodes))
	for ino := range inodes {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		rec := inodes[ino]
		if refs[ino] == 0 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d allocated but unreachable", ino))
		}
		if !inodeBitmap[ino] {
			rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d in use but free in bitmap", ino))
		}
		if ino != layout.RootIno && !rec.in.Mode.IsDir() && refs[ino] > 0 && int(rec.in.Nlink) != refs[ino] {
			rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d has nlink %d but %d directory entries", ino, rec.in.Nlink, refs[ino]))
		}
	}
	rep.Duration = d.Clock().Now().Sub(start)
	return rep, nil
}
