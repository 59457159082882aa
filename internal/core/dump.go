package core

import (
	"errors"
	"fmt"
	"io"

	"lfs/internal/disk"
	"lfs/internal/layout"
)

// dumpHead reads what Dump and DumpImap start from: the superblock and
// both checkpoint regions.
func dumpHead(d *disk.Disk) (superblock, [2]ckptRegion, error) {
	sb, err := readSuperblock(d, 4096, disk.CauseTool, "dump: superblock")
	if err != nil {
		return superblock{}, [2]ckptRegion{}, err
	}
	regions, err := readCheckpoints(d, sb, make([]byte, sb.CkptBytes), disk.CauseTool, "dump: checkpoint")
	return sb, regions, err
}

// Dump prints the on-disk structures of an LFS volume in human
// readable form: the superblock, both checkpoint regions, and — with
// segments set — a walk of every log unit summary on the disk. It
// parses the raw image without mounting, so it works on crashed
// volumes too.
func Dump(w io.Writer, d *disk.Disk, segments bool) error {
	sb, regions, err := dumpHead(d)
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

	for i, r := range regions {
		if r.err != nil {
			fmt.Fprintf(w, "checkpoint %d: invalid (%v)\n", i, r.err)
			continue
		}
		st := r.st
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
	}
	newest, err := newestCheckpoint(regions)
	if err != nil || !segments {
		return err
	}

	// Each segment the newest checkpoint does not call clean is read once
	// and walked with the reader roll-forward and the cleaner use, by the
	// cleaner's rule: a sealed segment's units reach its end, so only an
	// active segment's walk ends silently, where no unit starts. Any other
	// verdict gets a line; a payload mismatch is appended to its unit's.
	fmt.Fprintf(w, "log units:\n")
	bs := int(sb.BlockSize)
	raw := make([]byte, sb.SegmentSize)
	for seg, usage := range newest.Usage {
		if usage.State == segClean {
			continue
		}
		first := int64(sb.SegStart) + int64(seg)*int64(sb.SegmentSize)/512
		if err := d.ReadSectors(first, raw, disk.CauseTool, "dump: segment"); err != nil {
			return err
		}
		for blk := 0; maxUnitBlocks(len(raw)/bs-blk, bs) > 0; {
			u, err := readUnit(raw, blk, bs, nil)
			if usage.State == segActive && errors.Is(err, errSummaryMagic) {
				break
			}
			if err != nil && !errors.Is(err, errUnitData) {
				fmt.Fprintf(w, "  seg %4d blk %4d: %v\n", seg, blk, err)
				break
			}
			kinds := map[blockKind]int{}
			for _, r := range u.refs {
				kinds[r.Kind]++
			}
			fmt.Fprintf(w, "  seg %4d blk %4d: serial %6d, %3d blocks (%d data, %d indirect, %d inodes, %d imap), t=%v",
				seg, blk, u.Serial, u.NBlocks,
				kinds[kindData], kinds[kindIndirect], kinds[kindInodes], kinds[kindImap], u.Timestamp)
			if u.Inline > 0 {
				fmt.Fprintf(w, ", %d inline inodes", u.Inline)
			}
			if err != nil {
				fmt.Fprintf(w, ", %v", err)
			}
			fmt.Fprintln(w)
			blk = u.end
		}
	}
	return nil
}

// DumpImap prints the allocated inode-map entries of the volume's
// newest checkpoint: inode number, version, disk address, and slot.
// Like Dump it parses the raw image without mounting.
func DumpImap(w io.Writer, d *disk.Disk) error {
	sb, regions, err := dumpHead(d)
	if err != nil {
		return err
	}
	newest, err := newestCheckpoint(regions)
	if err != nil {
		return err
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
