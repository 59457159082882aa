package core

import (
	"lfs/internal/disk"
	"lfs/internal/layout"
)

// InlineUnits counts the log units in p, the bytes of one disk write,
// whose summaries carry inline inode records. A segment write starts at a
// unit; any other write holds none.
func InlineUnits(p []byte, bs int) int {
	n := 0
	for blk := 0; blk < len(p)/bs; {
		u, err := readUnit(p, blk, bs, nil)
		if err != nil {
			break
		}
		if u.Inline > 0 {
			n++
		}
		blk = u.end
	}
	return n
}

// ColdRecordsOnLaterHot counts the inode records in cold log units of
// writes, disk writes in issue order each at its byte offset in offs,
// whose single-indirect block, when the record was written, held a hot
// unit's indirect block of a later serial: a cleaner pass's record that a
// crash keeps only because the hot run was issued first.
func ColdRecordsOnLaterHot(writes [][]byte, offs []int64, bs int) int {
	type logged struct {
		serial uint64
		hot    bool
		kind   blockKind
	}
	last := map[layout.DiskAddr]logged{} // what each block address holds
	n := 0
	for k, w := range writes {
		for blk := 0; blk < len(w)/bs; {
			u, err := readUnit(w, blk, bs, nil)
			if err != nil {
				break
			}
			for j, ref := range u.refs {
				addr := layout.DiskAddr(offs[k]/disk.SectorSize + int64((blk+u.SumBlocks+j)*bs/disk.SectorSize))
				last[addr] = logged{u.Serial, u.Class == classHot, ref.Kind}
				if ref.Kind != kindInodes || u.Class != classCold {
					continue
				}
				for i := 0; i+layout.InodeSize <= bs; i += layout.InodeSize {
					in, err := layout.DecodeInode(u.data[j*bs+i:])
					if l := last[in.Indirect]; err == nil && in.Allocated() && l.hot && l.kind == kindIndirect && l.serial > u.Serial {
						n++
					}
				}
			}
			blk = u.end
		}
	}
	return n
}
