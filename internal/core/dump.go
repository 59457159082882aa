package core

import (
	"fmt"
	"io"

	"lfs/internal/disk"
	"lfs/internal/layout"
)

// Dump prints the on-disk structures of an LFS volume in human
// readable form: the superblock, both checkpoint regions, and — with
// segments set — a walk of every log unit summary on the disk. It
// parses the raw image without mounting, so it works on crashed
// volumes too.
func Dump(w io.Writer, d *disk.Disk, segments bool) error {
	buf := make([]byte, 4096)
	if err := d.ReadSectors(0, buf, disk.CauseTool, "dump: superblock"); err != nil {
		return err
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "superblock:\n")
	fmt.Fprintf(w, "  block size     %d\n", sb.BlockSize)
	fmt.Fprintf(w, "  segment size   %d\n", sb.SegmentSize)
	fmt.Fprintf(w, "  segments       %d\n", sb.Segments)
	fmt.Fprintf(w, "  max inodes     %d\n", sb.MaxInodes)
	fmt.Fprintf(w, "  ckpt regions   sectors %d and %d (%d bytes each)\n", sb.Ckpt0Sector, sb.Ckpt1Sector, sb.CkptBytes)
	fmt.Fprintf(w, "  segment area   sector %d\n", sb.SegStart)

	var newest *checkpointState
	for i, sector := range []int64{int64(sb.Ckpt0Sector), int64(sb.Ckpt1Sector)} {
		region := make([]byte, sb.CkptBytes)
		if err := d.ReadSectors(sector, region, disk.CauseTool, "dump: checkpoint"); err != nil {
			return err
		}
		st, err := decodeCheckpoint(region)
		if err != nil {
			fmt.Fprintf(w, "checkpoint %d: invalid (%v)\n", i, err)
			continue
		}
		fmt.Fprintf(w, "checkpoint %d:\n", i)
		fmt.Fprintf(w, "  serial        %d\n", st.Serial)
		fmt.Fprintf(w, "  timestamp     %v\n", st.Timestamp)
		fmt.Fprintf(w, "  log head      segment %d block %d\n", st.HeadSeg, st.HeadBlk)
		fmt.Fprintf(w, "  write serial  %d\n", st.WriteSerial)
		fmt.Fprintf(w, "  live bytes    %d\n", st.LiveBytes)
		nImap := 0
		for _, a := range st.ImapAddrs {
			if !a.IsNil() {
				nImap++
			}
		}
		fmt.Fprintf(w, "  imap blocks   %d of %d on disk\n", nImap, len(st.ImapAddrs))
		var clean, dirty, active int
		for _, u := range st.Usage {
			switch u.State {
			case segClean:
				clean++
			case segDirty:
				dirty++
			default:
				active++
			}
		}
		fmt.Fprintf(w, "  segments      %d clean, %d dirty, %d active\n", clean, dirty, active)
		if newest == nil || st.Serial > newest.Serial {
			cp := st
			newest = &cp
		}
	}
	if newest == nil {
		return fmt.Errorf("lfsdump: no valid checkpoint region")
	}
	if !segments {
		return nil
	}

	fmt.Fprintf(w, "log units:\n")
	bs := int(sb.BlockSize)
	blocksPerSeg := int(sb.SegmentSize) / bs
	spb := int64(bs / 512)
	for seg := 0; seg < int(sb.Segments); seg++ {
		if newest.Usage[seg].State == segClean {
			continue
		}
		first := int64(sb.SegStart) + int64(seg)*int64(sb.SegmentSize)/512
		blk := 0
		for blk < blocksPerSeg {
			head := make([]byte, bs)
			if err := d.ReadSectors(first+int64(blk)*spb, head, disk.CauseTool, "dump: summary"); err != nil {
				return err
			}
			h, err := decodeSummaryHeader(head)
			if err != nil || h.checkBounds(blk, blocksPerSeg) != nil {
				break
			}
			unit := make([]byte, (h.SumBlocks+h.NBlocks)*bs)
			if err := d.ReadSectors(first+int64(blk)*spb, unit, disk.CauseTool, "dump: unit"); err != nil {
				return err
			}
			hh, refs, err := decodeSummary(unit, nil)
			if err != nil {
				break
			}
			kinds := map[blockKind]int{}
			for _, r := range refs {
				kinds[r.Kind]++
			}
			fmt.Fprintf(w, "  seg %4d blk %4d: serial %6d, %3d blocks (%d data, %d indirect, %d inodes, %d imap), t=%v\n",
				seg, blk, hh.Serial, hh.NBlocks,
				kinds[kindData], kinds[kindIndirect], kinds[kindInodes], kinds[kindImap], hh.Timestamp)
			blk += hh.SumBlocks + hh.NBlocks
		}
	}
	return nil
}

// DumpImap prints the allocated inode-map entries of the volume's
// newest checkpoint: inode number, version, disk address, and slot.
// Like Dump it parses the raw image without mounting.
func DumpImap(w io.Writer, d *disk.Disk) error {
	buf := make([]byte, 4096)
	if err := d.ReadSectors(0, buf, disk.CauseTool, "dump: superblock"); err != nil {
		return err
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return err
	}
	var newest *checkpointState
	for _, sector := range []int64{int64(sb.Ckpt0Sector), int64(sb.Ckpt1Sector)} {
		region := make([]byte, sb.CkptBytes)
		if err := d.ReadSectors(sector, region, disk.CauseTool, "dump: checkpoint"); err != nil {
			return err
		}
		st, err := decodeCheckpoint(region)
		if err != nil {
			continue
		}
		if newest == nil || st.Serial > newest.Serial {
			cp := st
			newest = &cp
		}
	}
	if newest == nil {
		return fmt.Errorf("lfsdump: no valid checkpoint region")
	}
	per := imapEntriesPerBlock(int(sb.BlockSize))
	fmt.Fprintf(w, "%-8s %-8s %-12s %-5s %s\n", "ino", "version", "addr", "slot", "atime")
	count := 0
	for idx, addr := range newest.ImapAddrs {
		if addr.IsNil() {
			continue
		}
		blk := make([]byte, sb.BlockSize)
		if err := d.ReadSectors(int64(addr), blk, disk.CauseTool, "dump: imap"); err != nil {
			return err
		}
		for i := 0; i < per; i++ {
			ino := layout.Ino(idx*per+i) + 1
			if uint32(ino) > sb.MaxInodes {
				break
			}
			e := decodeImapEntry(blk[i*imapEntrySize:])
			if !e.Allocated {
				continue
			}
			fmt.Fprintf(w, "%-8d %-8d %-12v %-5d %v\n", ino, e.Version, e.Addr, e.Slot, e.Atime)
			count++
		}
	}
	fmt.Fprintf(w, "%d allocated inodes (as of checkpoint serial %d)\n", count, newest.Serial)
	return nil
}
